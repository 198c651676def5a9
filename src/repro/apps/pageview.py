"""Pageview Count (PVC): URL frequency over web-server logs (§IV-A.1).

"It is an I/O-bound application as its kernels perform little work per
input record.  The logs are highly sparse in that duplicate URLs are rare,
so the volume of intermediate data is large, with a massive number of
keys."
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.hw.specs import DeviceSpec
from repro.ocl.kernel import KernelCost
from repro.storage.records import KVSchema, TextRecordFormat

from repro.core.api import MapReduceApp, sum_by_key

__all__ = ["PageViewApp"]

#: effective device ops per input byte — low: "little work per record"
_OPS_PER_BYTE = 40.0
_OPS_PER_VALUE = 10.0


class PageViewApp(MapReduceApp):
    """Count URL occurrences in ``project url count size`` log lines."""

    name = "pageview"
    record_format = TextRecordFormat()
    inter_schema = KVSchema("pvc-inter", key_bytes=len, value_bytes=4)
    output_schema = KVSchema("pvc-out", key_bytes=len, value_bytes=8)
    has_combiner = True

    def map_batch(self, records: Sequence[bytes]) -> List[Tuple[bytes, int]]:
        pairs: List[Tuple[bytes, int]] = []
        for record in records:
            fields = record.split()
            if len(fields) >= 2:
                pairs.append((fields[1], 1))
        return pairs

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
        return KernelCost(flops=_OPS_PER_VALUE * n_values + 16.0 * n_keys,
                          device_bytes=40.0 * (n_keys + n_values),
                          launches=0)
