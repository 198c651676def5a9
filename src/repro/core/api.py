"""Application-facing API: map/combine/reduce logic plus cost models.

An application subclasses :class:`MapReduceApp` and provides

* the *real* data transformations (``map_batch``, ``reduce``, optionally
  ``combine``) — all engines (Glasswing, the Hadoop baseline, the GPMR
  baseline and the sequential reference) execute exactly these, which is
  how output equivalence across engines is guaranteed;
* analytic *cost models* (``map_cost``, ``reduce_cost``) describing what
  one batch costs on a given device — the OpenCL-kernel side of the app.

This mirrors Glasswing's split between host configuration code and OpenCL
compute kernels: the map/reduce bodies here stand in for the `.cl` sources
a real Glasswing application ships.
"""

from __future__ import annotations

import zlib
from collections import Counter
from itertools import groupby, repeat
from operator import countOf, itemgetter
from typing import (Any, Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

from repro.hw.specs import DeviceSpec
from repro.ocl.kernel import KernelCost
from repro.storage.records import KVSchema, PairColumns, TextRecordFormat

__all__ = ["MapReduceApp", "RecordMapReduceApp", "Emitter", "stable_hash",
           "sum_by_key", "merge_runs"]

Pair = Tuple[Any, Any]


def stable_hash(key: Any) -> int:
    """Deterministic (cross-run) hash used for partitioning.

    Python's builtin ``hash`` is salted per process for strings; MapReduce
    partitioning must be stable so that repeated runs and different
    engines place keys identically.
    """
    if isinstance(key, bytes):
        data = key
    elif isinstance(key, str):
        data = key.encode("utf-8")
    else:
        data = repr(key).encode("utf-8")
    return zlib.crc32(data)


def sum_by_key(pairs: Iterable[Pair]) -> List[Pair]:
    """``run_combine`` of an app whose ``combine`` is ``[sum(values)]``
    over integer counts: one running total per key instead of a value
    list and a ``combine`` call per key, keys in first-occurrence order.

    A :class:`PairColumns` batch whose values all equal 1 and add up to
    an ``int`` (so no float, numpy or other numeric type is among them)
    is a plain occurrence count: ``Counter`` does it in C, giving the
    same int totals in the same order.
    """
    if isinstance(pairs, PairColumns):
        keys, values = pairs.keys, pairs.values
        if countOf(values, 1) == len(values) and type(sum(values)) is int:
            return list(Counter(keys).items())
        pairs = zip(keys, values)
    totals: Dict[Any, int] = {}
    get = totals.get
    for k, n in pairs:
        totals[k] = get(k, 0) + n
    return list(totals.items())


def merge_runs(app: MapReduceApp, runs: Sequence[PairColumns]) -> PairColumns:
    """Multi-way merge of sorted runs: one stable ``app.sort_order`` of
    their concatenation (equal keys in run order, then in-run order) and
    one gather.  A lone run is returned as is: nothing mutates a run."""
    merged = PairColumns.concat(runs)
    return merged if len(runs) == 1 else \
        merged.take(app.sort_order(merged.keys))


class MapReduceApp:
    """Base class for the five paper applications (and user apps).

    Subclasses must set :attr:`name`, :attr:`inter_schema`,
    :attr:`output_schema` and implement :meth:`map_batch`,
    :meth:`reduce` and the two cost methods.
    """

    #: application identifier (used in traces and result files)
    name: str = "app"
    #: how input bytes split into records
    record_format = TextRecordFormat()
    #: serialized sizes of intermediate pairs
    inter_schema: KVSchema
    #: serialized sizes of final output pairs
    output_schema: KVSchema
    #: True when the app provides :meth:`combine`
    has_combiner: bool = False
    #: True when the job has no reduce logic (TeraSort): the framework
    #: writes the merged, sorted intermediate stream directly.
    map_only_output: bool = False

    # -- real data transformations ----------------------------------------
    def map_batch(self, records: Sequence[bytes]
                  ) -> Union[List[Pair], PairColumns]:
        """Map one input chunk's records to intermediate pairs: a list of
        ``(key, value)`` tuples, or a :class:`PairColumns` holding the
        same pairs as a keys column and a values column (WordCount's and
        TeraSort's emit), which every later stage reads without building
        the tuples."""
        raise NotImplementedError

    def combine(self, key: Any, values: List[Any]) -> List[Any]:
        """Local reduction over one key's values within a map chunk.

        Only called when :attr:`has_combiner` and the job enables the
        combiner.  Must be associative/commutative with :meth:`reduce`.
        """
        raise NotImplementedError

    def reduce(self, key: Any, values: List[Any]) -> List[Pair]:
        """Reduce one key's full value list to output pairs."""
        raise NotImplementedError

    # -- partitioning / ordering --------------------------------------------
    # Batch hooks (a keys column in, a list out): exact generic defaults.
    def partition(self, key: Any, n_partitions: int) -> int:
        """Partition index for ``key`` (hash by default; TeraSort overrides
        with a sampled range partitioner to obtain total order)."""
        return stable_hash(key) % n_partitions

    def partition_batch(self, keys: Sequence[Any],
                        n_partitions: int) -> List[int]:
        """:meth:`partition` of every key of a column, in column order."""
        return list(map(self.partition, keys, repeat(n_partitions)))

    def sort_key(self, key: Any):
        """Sorting key for intermediate ordering (identity by default)."""
        return key

    def sort_order(self, keys: Sequence[Any],
                   pids: Optional[Sequence[int]] = None) -> List[int]:
        """Positions of ``keys`` in stable :meth:`sort_key` order; in stable
        ``(pid, sort key)`` order, every bucket in place, given ``pids``."""
        if getattr(self.sort_key, "__func__", None) is not \
                MapReduceApp.sort_key:
            keys = list(map(self.sort_key, keys))
        if pids is not None:
            keys = list(zip(pids, keys))
        return sorted(range(len(keys)), key=keys.__getitem__)

    def group_sizes(self, keys: Sequence[Any]) -> List[int]:
        """Lengths of the runs of equal keys in a sorted column: those of
        ``itertools.groupby`` (its equality, identity shortcut included),
        counted with no Python call per key."""
        return list(map(len, map(list, map(itemgetter(1), groupby(keys)))))

    # -- cost models (the OpenCL kernel side) ----------------------------------
    def map_cost(self, device: DeviceSpec, n_records: int,
                 in_bytes: int) -> KernelCost:
        """Device cost of mapping one chunk of ``n_records`` records."""
        raise NotImplementedError

    def combine_cost(self, device: DeviceSpec, n_pairs: int) -> KernelCost:
        """Device cost of combining ``n_pairs`` intermediate pairs."""
        return KernelCost(flops=4.0 * n_pairs, launches=0)

    def reduce_cost(self, device: DeviceSpec, n_keys: int,
                    n_values: int) -> KernelCost:
        """Device cost of reducing ``n_keys`` keys with ``n_values`` total
        values (excluding launch overhead, which the pipeline adds from
        its concurrent-keys configuration)."""
        raise NotImplementedError

    # -- workload-division hints -------------------------------------------------
    def preferred_threads(self, device: DeviceSpec) -> Optional[int]:
        """Optional per-device thread-count override (Glasswing's
        predominant tuning variable, §1 of the paper)."""
        return None

    # -- helpers ----------------------------------------------------------------
    def run_combine(self, pairs: Iterable[Pair]) -> List[Pair]:
        """Group ``pairs`` by key and apply :meth:`combine` per key
        (keys in first-occurrence order)."""
        grouped: Dict[Any, List[Any]] = {}
        get = grouped.get
        for k, v in pairs:
            vs = get(k)
            if vs is None:
                grouped[k] = [v]
            else:
                vs.append(v)
        return [(k, v) for k, vs in grouped.items()
                for v in self.combine(k, vs)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MapReduceApp {self.name!r}>"


class Emitter:
    """Collects ``emit(key, value)`` calls from per-record map functions."""

    __slots__ = ("pairs",)

    def __init__(self) -> None:
        self.pairs: List[Pair] = []

    def __call__(self, key: Any, value: Any) -> None:
        self.pairs.append((key, value))

    emit = __call__


class RecordMapReduceApp(MapReduceApp):
    """Per-record, emit-style variant of the kernel API (§III-F).

    The paper's OpenCL API "strictly follows the MapReduce model: the
    user functions consume input and emit output in the form of key/value
    pairs".  Subclasses implement :meth:`map_record` (one record, one
    emitter) instead of :meth:`map_batch`; the base class handles the
    chunk-wise invocation the pipeline performs.
    """

    def map_record(self, record: bytes, emit: Emitter) -> None:
        """Process one input record; call ``emit(key, value)`` freely."""
        raise NotImplementedError

    def map_batch(self, records: Sequence[bytes]) -> List[Pair]:
        emitter = Emitter()
        if hasattr(records, "tolist"):    # a fixed-record split's array
            records = records.tolist()
        for record in records:
            self.map_record(record, emitter)
        return emitter.pairs
