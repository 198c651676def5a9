"""TeraSort (TS): totally ordered sort of 100-byte records (§IV-A.1).

"TS requires the output of the job to be totally ordered across all
partitions ... the input data set is sampled in an attempt to estimate the
spread of keys.  Consequently, the job's map function uses the sampled
data to place each key in the appropriate output partition. ... TS does
not require a reduce function since its output is fully processed by the
end of the intermediate data shuffle."
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from repro.hw.specs import DeviceSpec
from repro.ocl.kernel import KernelCost
from repro.storage.records import FixedRecordFormat, KVSchema

from repro.core.api import MapReduceApp

__all__ = ["TeraSortApp"]

KEY_LEN = 10
RECORD_LEN = 100

#: effective device ops per record — key extraction + partition lookup
_OPS_PER_RECORD = 220.0

_KEY_OF = itemgetter(slice(None, KEY_LEN))
_VALUE_OF = itemgetter(slice(KEY_LEN, None))


class TeraSortApp(MapReduceApp):
    """Sort TeraGen records via a sampled range partitioner.

    ``sample_keys`` — keys sampled from the input (the framework-side
    sampling pass); split points per partition count are derived lazily
    from them, so one app instance works for any cluster/partition size.
    """

    name = "terasort"
    record_format = FixedRecordFormat(RECORD_LEN)
    inter_schema = KVSchema("ts-inter", key_bytes=KEY_LEN,
                            value_bytes=RECORD_LEN - KEY_LEN)
    output_schema = KVSchema("ts-out", key_bytes=KEY_LEN,
                             value_bytes=RECORD_LEN - KEY_LEN)
    has_combiner = False
    map_only_output = True

    def __init__(self, sample_keys: Sequence[bytes]):
        if not sample_keys:
            raise ValueError("TeraSort needs a non-empty key sample")
        self._sample = sorted(sample_keys)
        self._splits: Dict[int, List[bytes]] = {}

    @classmethod
    def from_input(cls, data: bytes, sample_every: int = 997) -> "TeraSortApp":
        """Sample every ``sample_every``-th record key of the input blob."""
        keys = [data[i:i + KEY_LEN]
                for i in range(0, len(data), RECORD_LEN * sample_every)]
        return cls(keys or [data[:KEY_LEN]])

    # -- MapReduce logic ----------------------------------------------------
    def map_batch(self, records: Sequence[bytes]) -> List[Tuple[bytes, bytes]]:
        return list(zip(map(_KEY_OF, records), map(_VALUE_OF, records)))

    def reduce(self, key, values):  # pragma: no cover - map_only_output
        return [(key, v) for v in values]

    def partition(self, key: bytes, n_partitions: int) -> int:
        """Range partitioner: totally ordered output across partitions."""
        return bisect.bisect_right(self._split_points(n_partitions), key)

    def _split_points(self, n_partitions: int) -> List[bytes]:
        if n_partitions not in self._splits:
            sample = self._sample
            points = []
            for p in range(1, n_partitions):
                idx = (p * len(sample)) // n_partitions
                points.append(sample[min(idx, len(sample) - 1)])
            self._splits[n_partitions] = points
        return self._splits[n_partitions]

    # -- cost models -----------------------------------------------------------
    def map_cost(self, device: DeviceSpec, n_records: int,
                 in_bytes: int) -> KernelCost:
        return KernelCost(flops=_OPS_PER_RECORD * n_records,
                          device_bytes=2.0 * in_bytes)

    def reduce_cost(self, device: DeviceSpec, n_keys: int,
                    n_values: int) -> KernelCost:  # pragma: no cover
        return KernelCost(launches=0)
