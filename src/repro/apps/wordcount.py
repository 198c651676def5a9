"""WordCount (WC): word frequency over text (§IV-A.1).

I/O-bound with somewhat more kernel work than PVC; its high key
repetition makes it the paper's show-case for hash-table contention and
combiner leverage (Table II) and for partitioner-thread tuning (Fig 4).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.hw.specs import DeviceSpec
from repro.ocl.kernel import KernelCost
from repro.storage.records import KVSchema, PairColumns, TextRecordFormat

from repro.core.api import MapReduceApp, sum_by_key

__all__ = ["WordCountApp"]

#: effective device ops per input byte (tokenising + hashing)
_OPS_PER_BYTE = 110.0
#: device ops per reduced value
_OPS_PER_VALUE = 12.0


class WordCountApp(MapReduceApp):
    """Count word occurrences; keys are raw word bytes."""

    name = "wordcount"
    record_format = TextRecordFormat()
    inter_schema = KVSchema("wc-inter", key_bytes=len, value_bytes=4)
    output_schema = KVSchema("wc-out", key_bytes=len, value_bytes=8)
    has_combiner = True

    def map_batch(self, records: Sequence[bytes]) -> PairColumns:
        # One C-level split over the whole chunk: records are
        # newline-delimited, so joining on a separator preserves words.
        # The emit is two columns, not one (word, 1) tuple per word.
        words = b"\n".join(records).split()
        return PairColumns(words, [1] * len(words))

    def combine(self, key: bytes, values: List[int]) -> List[int]:
        return [sum(values)]

    def run_combine(self, pairs):
        return sum_by_key(pairs)

    def reduce(self, key: bytes, values: List[int]) -> List[Tuple[bytes, int]]:
        return [(key, sum(values))]

    def map_cost(self, device: DeviceSpec, n_records: int,
                 in_bytes: int) -> KernelCost:
        return KernelCost(flops=_OPS_PER_BYTE * in_bytes,
                          device_bytes=2.0 * in_bytes)

    def reduce_cost(self, device: DeviceSpec, n_keys: int,
                    n_values: int) -> KernelCost:
        return KernelCost(flops=_OPS_PER_VALUE * n_values + 20.0 * n_keys,
                          device_bytes=24.0 * (n_keys + n_values),
                          launches=0)
