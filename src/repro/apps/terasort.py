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
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.hw.specs import DeviceSpec
from repro.ocl.kernel import KernelCost
from repro.storage.records import FixedRecordFormat, KVSchema, PairColumns

from repro.core.api import MapReduceApp

__all__ = ["TeraSortApp"]

KEY_LEN = 10
RECORD_LEN = 100

#: effective device ops per record — key extraction + partition lookup
_OPS_PER_RECORD = 220.0

#: a record viewed as its key and its value; a ``V`` field keeps every
#: byte, trailing NULs included, so a key keeps its identity
_RECORD = np.dtype([("key", f"V{KEY_LEN}"),
                    ("value", f"V{RECORD_LEN - KEY_LEN}")])
#: a fixed-width key viewed as its first eight bytes, big-endian — one
#: unsigned integer that orders as those bytes do — and the rest
_PREFIX = np.dtype([("prefix", ">u8"), ("rest", f"V{KEY_LEN - 8}")])


def _fixed(keys: Sequence[bytes]) -> np.ndarray:
    """A keys column as one fixed-width ``S10`` array, for comparison only.

    An array column (the ``V10`` keys :meth:`TeraSortApp.map_batch` emits)
    is viewed as it lies; a sequence of ``bytes`` is packed.  On keys of
    exactly ``KEY_LEN`` bytes, ``S10`` order and equality are ``bytes``
    order and equality: numpy compares the fixed-width buffers as unsigned
    bytes, and two keys of one width never differ only in trailing
    padding.  Keys never come back out of the ``S10`` view (``tolist``
    would strip trailing NULs): callers gather the key column by index."""
    if isinstance(keys, np.ndarray):
        if keys.dtype.itemsize != KEY_LEN:
            raise ValueError(f"TeraSort keys must be {KEY_LEN} bytes each")
        return keys.view(f"S{KEY_LEN}")
    joined = b"".join(keys)
    if len(joined) != KEY_LEN * len(keys):
        raise ValueError(f"TeraSort keys must be {KEY_LEN} bytes each")
    return np.frombuffer(joined, dtype=f"S{KEY_LEN}")


def _prefixes(fixed: np.ndarray) -> np.ndarray:
    """Each key's first eight bytes as an integer.  Keys with distinct
    prefixes compare as their prefixes do, and integers compare several
    times faster than ``S10`` strings; only a shared prefix needs the
    whole key."""
    return fixed.view(_PREFIX)["prefix"]


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
        if any(not isinstance(k, bytes) or len(k) != KEY_LEN
               for k in sample_keys):
            raise ValueError(f"TeraSort sample keys must be {KEY_LEN}-byte "
                             f"bytes, as every record's key is")
        self._sample = sorted(sample_keys)
        self._splits: Dict[int, List[bytes]] = {}

    @classmethod
    def from_input(cls, data: bytes, sample_every: int = 997) -> "TeraSortApp":
        """Sample every ``sample_every``-th record key of the input blob."""
        keys = [data[i:i + KEY_LEN]
                for i in range(0, len(data), RECORD_LEN * sample_every)]
        return cls(keys or [data[:KEY_LEN]])

    # -- MapReduce logic ----------------------------------------------------
    def map_batch(self, records: Sequence[bytes]) -> PairColumns:
        """The records' keys and values as two views of their bytes."""
        fields = records.view(_RECORD)
        return PairColumns(fields["key"], fields["value"])

    def reduce(self, key, values):  # pragma: no cover - map_only_output
        return [(key, v) for v in values]

    def partition(self, key: bytes, n_partitions: int) -> int:
        """Range partitioner: totally ordered output across partitions."""
        return bisect.bisect_right(self._split_points(n_partitions), key)

    # The batch hooks: the per-key defaults' exact equals in numpy.
    def partition_batch(self, keys: Sequence[bytes],
                        n_partitions: int) -> np.ndarray:
        """One ``searchsorted`` of the column over the split points: the
        ``bisect_right`` of :meth:`partition` for every key.

        ``bisect_right`` counts the points ``<= key``; for a key sharing
        its prefix with no point, ``point <= key`` exactly when the point's
        prefix is, so the integer search is exact.  A key that does share
        one (every sampled key does) is searched again as a whole."""
        points = _fixed(self._split_points(n_partitions))
        fixed = _fixed(keys)
        at, key_at = _prefixes(points), _prefixes(fixed)
        pids = np.searchsorted(at, key_at, side="right")
        if len(at):
            # The last point at or below a key is the one it could share.
            shared = np.flatnonzero(at[np.maximum(pids - 1, 0)] == key_at)
            pids[shared] = np.searchsorted(points, fixed[shared],
                                           side="right")
        return pids

    def sort_order(self, keys: Sequence[bytes],
                   pids: Optional[Sequence[int]] = None) -> np.ndarray:
        """The column's stable sort order.  ``pids`` is not needed: a range
        partitioner's index never falls as its key rises, so key order is
        (partition, key) order.

        Distinct prefixes fix the order alone, and an order without ties
        is the stable one, so a quick integer argsort is exact; a shared
        prefix takes the stable sort of the whole ``S10`` keys."""
        fixed = _fixed(keys)
        prefixes = _prefixes(fixed)
        order = np.argsort(prefixes)
        ordered = prefixes[order]
        if (ordered[1:] == ordered[:-1]).any():
            order = np.argsort(fixed, kind="stable")
        return order

    def group_sizes(self, keys: Sequence[bytes]) -> np.ndarray:
        """Lengths of the runs of equal keys: one neighbour comparison."""
        fixed = _fixed(keys)
        if not len(fixed):
            return np.zeros(0, dtype=np.intp)
        bounds = np.flatnonzero(fixed[1:] != fixed[:-1]) + 1
        return np.diff(bounds, prepend=0, append=len(fixed))

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
