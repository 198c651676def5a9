"""Map-output collection mechanisms (§III-F of the paper).

Glasswing offers two ways for map kernels to emit key/value pairs:

* **shared buffer pool** — each emit allocates space with a single atomic
  operation.  The kernel is fast (low contention), but the partitioning
  stage must decode *every pair individually*, which for high-volume
  workloads (WordCount) makes partitioning the dominant pipeline stage —
  Table II configuration (iii).
* **hash table** — pairs are aggregated per key inside device memory.
  Threads contend on buckets (the kernel slows down with key repetition,
  more on devices with expensive atomics), but the partitioner touches one
  entry per *unique key* and the combiner can shrink the data before it
  ever leaves the device — configurations (i) and (ii).  Without a
  combiner, a *compaction kernel* runs after map() to place values of the
  same key contiguously (the paper's explanation for config (ii)'s higher
  kernel time).

The collector transforms the map kernel's raw emits into a
:class:`~repro.core.data.MapOutput` plus an extra :class:`KernelCost`
charged to the kernel stage.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import numpy as np

from repro.hw.specs import DeviceSpec
from repro.ocl.kernel import KernelCost
from repro.core.api import MapReduceApp
from repro.core.data import MapOutput, PairColumns

__all__ = ["collect_map_output", "hash_contention", "COLLECTORS",
           "KeyInterner"]

Pair = Tuple[Any, Any]


class KeyInterner:
    """Canonicalises equal keys to one object (hash-table interning).

    The hash collector aggregates every emitted key; on batched runs
    the same hot keys recur in every batch, so the keys that *leave* the
    collector are interned — one entry per unique key once the combiner
    has run — and CPython compares interned keys by identity before
    falling back to ``__eq__``.  Interning is free of virtual time (the
    hash probe is already part of the collector's charged cost) and
    never changes results — only object identity.
    """

    __slots__ = ("_table",)

    def __init__(self) -> None:
        self._table: dict = {}

    def __len__(self) -> int:
        return len(self._table)

    def intern(self, key: Any) -> Any:
        return self._table.setdefault(key, key)

#: emitting one pair costs a handful of device ops regardless of collector
_EMIT_FLOPS = 8.0
#: extra probe/insert work per pair for the hash table
_HASH_FLOPS = 24.0


def hash_contention(n_pairs: int, n_unique: int) -> float:
    """Atomic-contention intensity in [0, 1] from key repetition.

    WordCount-like workloads repeat a small set of hot keys, so threads
    loop on bucket atomics; PVC-like sparse key spaces barely contend.
    """
    if n_pairs == 0:
        return 0.0
    repetition = 1.0 - (n_unique / n_pairs)
    return max(0.0, min(1.0, repetition))


def _buffer_collect(app: MapReduceApp, device: DeviceSpec, pairs: List[Pair],
                    use_combiner: bool, chunk_index: int) -> Tuple[MapOutput, KernelCost]:
    raw = app.inter_schema.size_of(pairs)
    extra = KernelCost(
        flops=_EMIT_FLOPS * len(pairs),
        device_bytes=float(raw),
        atomic_intensity=0.05,   # one uncontended atomic per allocation
        launches=0,
    )
    out = MapOutput(chunk_index=chunk_index, pairs=PairColumns.of(pairs),
                    raw_bytes=raw, decode_items=len(pairs))
    return out, extra


def _hash_collect(app: MapReduceApp, device: DeviceSpec, pairs: List[Pair],
                  use_combiner: bool, chunk_index: int,
                  interner: KeyInterner | None = None
                  ) -> Tuple[MapOutput, KernelCost]:
    columns = PairColumns.of(pairs)
    keys = columns.keys
    try:
        n_unique = len(np.unique(keys)) if isinstance(keys, np.ndarray) \
            else len(set(keys))
    except TypeError:
        _reject_unhashable_key(pairs)
        raise
    contention = hash_contention(len(pairs), n_unique)
    raw_in = app.inter_schema.size_of(pairs)
    extra = KernelCost(
        flops=(_EMIT_FLOPS + _HASH_FLOPS) * len(pairs),
        device_bytes=float(raw_in),
        atomic_intensity=contention,
        launches=0,
    )
    if use_combiner:
        out_pairs = PairColumns.of(app.run_combine(pairs))
        extra = extra + app.combine_cost(device, len(pairs))
    else:
        # Compaction kernel: gather each key's values contiguously so the
        # partitioner need not walk the whole hash-table memory space.
        out_pairs = columns.take(app.sort_order(columns.keys))
        raw_out = app.inter_schema.size_of(out_pairs)
        extra = extra + KernelCost(flops=2.0 * len(pairs),
                                   device_bytes=2.0 * raw_out,
                                   launches=1)
    if interner is not None and not isinstance(out_pairs.keys, np.ndarray):
        out_pairs = PairColumns(list(map(interner.intern, out_pairs.keys)),
                                out_pairs.values)
    raw = app.inter_schema.size_of(out_pairs)
    out = MapOutput(chunk_index=chunk_index, pairs=out_pairs, raw_bytes=raw,
                    decode_items=n_unique)
    return out, extra


def _reject_unhashable_key(pairs: List[Pair]) -> None:
    """Name the key the hash table cannot hold (error path only)."""
    for key, _ in pairs:
        try:
            hash(key)
        except TypeError:
            raise TypeError(
                f"the hash collector needs hashable keys, got a "
                f"{type(key).__name__}; use collector=\"buffer\" (and no "
                f"combiner) for such keys") from None


COLLECTORS = {
    "buffer": _buffer_collect,
    "hash": _hash_collect,
}


def collect_map_output(collector: str, app: MapReduceApp, device: DeviceSpec,
                       pairs: List[Pair], use_combiner: bool,
                       chunk_index: int,
                       interner: KeyInterner | None = None
                       ) -> Tuple[MapOutput, KernelCost]:
    """Run the configured collector over one kernel launch's emits.

    ``pairs`` is what ``map_batch`` returned: a tuple list, or a
    :class:`PairColumns` that the hash table reads column-wise and the
    buffer pool passes on as is; either way the output is columns.

    ``interner`` (hash collector only) canonicalises repeated keys to one
    object across launches — a host-memory optimisation with no effect on
    the collected output or the charged cost.
    """
    try:
        fn = COLLECTORS[collector]
    except KeyError:
        raise ValueError(f"unknown collector {collector!r}") from None
    if use_combiner and collector != "hash":
        raise ValueError("the combiner requires the hash-table collector")
    if fn is _hash_collect:
        return fn(app, device, pairs, use_combiner, chunk_index,
                  interner=interner)
    return fn(app, device, pairs, use_combiner, chunk_index)
