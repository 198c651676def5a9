"""Unit tests for the reduce pipeline's planning and grouping.

The reduce reader used to build a ``(key, [values])`` entry and a value
list for every key of a partition at planning time.  That planner,
``_group_pairs`` and the kernel bodies that read its groups are kept here
as the reference: cutting the merged columns at key boundaries must plan
the same items and make the kernels emit the same pairs at the same cost,
for a map-only app and for a reducing one, over every key class with the
generic hooks and over 10-byte keys with TeraSort's fixed-width ones.
"""

import itertools
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, List, Tuple

import pytest

from repro.apps import TeraSortApp, WordCountApp
from repro.apps.datagen import wiki_text
from repro.core import JobConfig, run_glasswing
from repro.core.api import MapReduceApp, merge_runs
from repro.core.batching import apportion_bytes, resolve_batch_size
from repro.core.data import KeyGroupChunk, PairColumns
from repro.core.reduce_phase import ReducePhase
from repro.hw.presets import CPU_TYPE1, das4_cluster
from repro.ocl.kernel import KernelCost
from repro.storage.records import KVSchema


try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:    # pragma: no cover - hypothesis is an optional extra
    HAVE_HYPOTHESIS = False

FALLBACK_SEEDS = tuple(range(40))


# ------------------------------------------------------------ the reference
def _group_sizes(pairs: List[Tuple[Any, Any]]) -> List[int]:
    """The generic ``group_sizes`` hook over a pair list's keys."""
    return MapReduceApp().group_sizes([k for k, _ in pairs])


def run_of(pairs: List[Tuple[Any, Any]]) -> PairColumns:
    """A sorted pair list as the columnar run the partitioner cuts."""
    return PairColumns([k for k, _ in pairs], [v for _, v in pairs])


def _group_pairs(pairs: List[Tuple[Any, Any]]) -> List[Tuple[Any, List[Any]]]:
    """Group a sorted pair stream into (key, [values]) entries."""
    value_of = itemgetter(1)
    return [(key, list(map(value_of, vals)))
            for key, vals in itertools.groupby(pairs, key=itemgetter(0))]


@dataclass
class _GroupedItem:
    """A work item as the reference planner cut it: one entry per key."""

    index: int
    pid: int
    groups: List[Tuple[Any, List[Any]]]
    nbytes: int
    disk_bytes: int
    disk_raw: int
    merge_items: int
    n_values: int
    launches: int = 1
    window_keys: int = 0
    window_id: int = 0
    last: bool = True

    @property
    def n_keys(self) -> int:
        return len(self.groups)


def reference_plan_items(phase) -> List[List[_GroupedItem]]:
    """``ReducePhase._plan_items`` as it was: groups built per key."""
    cfg = phase.config
    keys_per_chunk = cfg.concurrent_keys * cfg.keys_per_thread
    batch = resolve_batch_size(cfg, phase.app.record_format)
    step = max(1, min(keys_per_chunk, batch))
    items: List[_GroupedItem] = []
    index = 0
    wid = 0
    owned = phase.pids if phase.pids is not None else phase.manager.owned
    for pid in owned:
        runs, disk_bytes, disk_raw = phase.manager.read_partition(pid)
        if not runs:
            continue
        groups = _group_pairs(list(merge_runs(phase.app, runs)))
        run_bits = max(1, len(runs)).bit_length()
        parts = []
        for wstart in range(0, len(groups), keys_per_chunk):
            window = groups[wstart:wstart + keys_per_chunk]
            for sstart in range(0, len(window), step):
                parts.append((window[sstart:sstart + step],
                              1 if sstart == 0 else 0, len(window),
                              wid, sstart + step >= len(window)))
            wid += 1
        weights = [sum(len(vs) for _, vs in part) for part, *_ in parts]
        disk_shares = apportion_bytes(disk_bytes, weights)
        raw_shares = apportion_bytes(disk_raw, weights)
        for ((part, launches, wkeys, w_id, w_last), pairs_here,
             d_stored, d_raw) in zip(parts, weights, disk_shares,
                                     raw_shares):
            items.append(_GroupedItem(
                index=index, pid=pid, groups=part,
                nbytes=phase.app.inter_schema.size_of(
                    (k, v) for k, vs in part for v in vs),
                disk_bytes=d_stored, disk_raw=d_raw,
                merge_items=pairs_here * run_bits, n_values=pairs_here,
                launches=launches, window_keys=wkeys,
                window_id=w_id, last=w_last))
            index += 1
    windows: List[List[_GroupedItem]] = []
    for it in items:
        if not windows or windows[-1][-1].window_id != it.window_id:
            windows.append([])
        windows[-1].append(it)
    return windows


def reference_kernel(phase, item: _GroupedItem):
    """``ReducePhase._kernel``'s reduction as it was: output pairs, the
    charged cost and the thread count."""
    cfg = phase.config
    out_pairs: List[Tuple[Any, Any]] = []
    if phase.app.map_only_output:
        for key, values in item.groups:
            out_pairs.extend(zip(itertools.repeat(key), values))
        cost = KernelCost(launches=0)
    else:
        for key, values in item.groups:
            out_pairs.extend(phase.app.reduce(key, values))
        relaunches = sum(len(vs) // cfg.max_values_per_launch
                         for _, vs in item.groups)
        base = phase.app.reduce_cost(phase.device.spec, item.n_keys,
                                     item.n_values)
        cost = KernelCost(flops=base.flops, device_bytes=base.device_bytes,
                          atomic_intensity=base.atomic_intensity,
                          launches=item.launches + relaunches)
    threads = min(item.window_keys or item.n_keys, cfg.concurrent_keys) \
        * cfg.reduce_threads_per_key
    return out_pairs, cost, threads


# ---------------------------------------------- a phase without a simulator
class _Partitions:
    """The intermediate manager as the planner sees it."""

    def __init__(self, partitions):
        self._partitions = partitions      # pid -> (runs, disk, raw)
        self.owned = sorted(partitions)

    def read_partition(self, pid):
        return self._partitions[pid]


class _Device:
    """Records every kernel cost instead of simulating it."""

    spec = CPU_TYPE1

    def __init__(self):
        self.launched: List[Tuple[KernelCost, int]] = []

    def execute_cost(self, cost, threads):
        self.launched.append((cost, threads))
        return iter(())


def planning_phase(app, config, partitions) -> ReducePhase:
    """A ``ReducePhase`` holding just what planning and the kernel read."""
    phase = object.__new__(ReducePhase)
    phase.app, phase.config, phase.pids = app, config, None
    phase.manager = _Partitions(partitions)
    phase.device, phase.faults, phase.keys_reduced = _Device(), None, 0
    phase._pid_by_index, phase._items_by_index = {}, {}
    phase._first_index_of_pid, phase._window_bytes = {}, {}
    return phase


def chunk_of(item) -> KeyGroupChunk:
    """The chunk ``_read`` makes of a planned item."""
    return KeyGroupChunk(index=item.index, pairs=item.pairs,
                         sizes=item.sizes, nbytes=item.nbytes)


def drive_kernel(phase, item):
    """Drive ``_kernel`` on ``item``'s chunk; returns it and the output."""
    chunk = chunk_of(item)
    kernel = phase._kernel(chunk)
    with pytest.raises(StopIteration) as done:
        next(kernel)
    return chunk, done.value.value


# --------------------------------------------------------- group lengths
def test_group_pairs_merges_consecutive_keys():
    pairs = [(b"a", 1), (b"a", 2), (b"b", 3), (b"c", 4), (b"c", 5)]
    assert _group_sizes(pairs) == [2, 1, 2]
    assert _group_pairs(pairs) == [(b"a", [1, 2]), (b"b", [3]), (b"c", [4, 5])]


def test_group_pairs_empty():
    assert _group_sizes([]) == []


def test_group_pairs_single_key():
    assert _group_sizes([(b"x", 1)] * 4) == [4]


class Fold:
    """A key with its own ``__eq__``: bytes equal up to ASCII case."""

    def __init__(self, raw: bytes):
        self.raw = raw

    def __eq__(self, other):
        return isinstance(other, Fold) and self.raw.lower() == other.raw.lower()

    __hash__ = None

    def __len__(self):
        return len(self.raw)

    def __repr__(self):
        return f"Fold({self.raw!r})"


NAN = float("nan")

#: key pools in sort order; a sorted index list over one gives a sorted
#: pair list whose neighbouring keys may be equal, tied or unequal
KEY_POOLS = {
    "ties": [0, 1, 1.0, True, 2.0, 2, 3],
    "nan-repeated": [0.5, NAN, NAN, 1.5],
    "nan-distinct": [0.5, float("nan"), float("nan"), 1.5],
    "custom-eq": [Fold(b"a"), Fold(b"A"), Fold(b"b"), Fold(b"bb"),
                  Fold(b"BB"), Fold(b"c")],
    "bytes": [b"a", b"b", b"c", b"d", b"e"],
}


def test_group_sizes_follow_groupby_equality():
    """Ties group, one NaN object groups with itself, two NaNs do not, and
    a custom ``__eq__`` decides."""
    ties = [(k, 0) for k in (1, 1.0, True, 2, 2.0)]
    assert _group_sizes(ties) == [3, 2]
    assert _group_sizes([(NAN, 0), (NAN, 1), (NAN, 2)]) == [3]
    assert _group_sizes([(float("nan"), 0), (float("nan"), 1)]) == [1, 1]
    folded = [(Fold(b"ab"), 0), (Fold(b"AB"), 1), (Fold(b"b"), 2)]
    assert _group_sizes(folded) == [2, 1]
    for pool in KEY_POOLS.values():
        pairs = [(k, i) for i, k in enumerate(pool)]
        assert _group_sizes(pairs) == [len(vs) for _, vs in _group_pairs(pairs)]


# ------------------------------------- the planner against the reference
def _key_width(key) -> int:
    # Equal keys have equal widths, as in every app: the reference sized a
    # group's pairs with its first key, the planner sizes each pair's own.
    return len(key) if isinstance(key, (bytes, Fold)) else 8


class _AnyKeyWordCount(WordCountApp):
    """WordCount (no combiner runs on the reduce side) over any key."""

    inter_schema = KVSchema("any-inter", key_bytes=_key_width, value_bytes=4)
    output_schema = KVSchema("any-out", key_bytes=_key_width, value_bytes=8)


class _AnyKeyTeraSort(TeraSortApp):
    """A map-only app over any key: TeraSort's output path with the generic
    batch hooks, since its fixed-width ones take 10-byte keys only."""

    partition_batch = MapReduceApp.partition_batch
    sort_order = MapReduceApp.sort_order
    group_sizes = MapReduceApp.group_sizes


APPS = {"terasort": _AnyKeyTeraSort([b"k" * 10]),
        "wordcount": _AnyKeyWordCount()}


def sorted_pairs(rng, pool_name, shape, pools=KEY_POOLS):
    """A sorted pair list over one key pool, with int values."""
    pool = pools[pool_name]
    if shape == "empty":
        return []
    if shape == "single":
        key = rng.choice(pool)
        return [(key, rng.randrange(100)) for _ in range(rng.randint(1, 9))]
    if shape == "unique":
        return [(k, rng.randrange(100)) for k in pool]
    picks = sorted(rng.randrange(len(pool)) for _ in range(rng.randint(1, 40)))
    return [(pool[i], rng.randrange(100)) for i in picks]


SHAPES = ("empty", "single", "unique", "mixed", "mixed")
#: (concurrent_keys, keys_per_thread, batch_size)
GEOMETRIES = ((1, 1, None), (2, 2, 1), (3, 1, 2), (2, 4, 3), (8, 4, None),
              (4096, 4, 5))


def check_plan(rng, app_name, pool_name, shape, geometry, apps=APPS,
               pools=KEY_POOLS, runs_per_partition=(1,)):
    concurrent_keys, keys_per_thread, batch_size = geometry
    app = apps[app_name]
    config = JobConfig(concurrent_keys=concurrent_keys,
                       keys_per_thread=keys_per_thread, batch_size=batch_size,
                       max_values_per_launch=rng.choice((1, 2, 3, 1 << 20)))
    partitions = {}
    for pid in range(rng.randint(1, 3)):
        runs = []
        # Several runs merge; a custom-eq pool has no order to merge by.
        for _ in range(rng.choice(runs_per_partition)):
            pairs = sorted_pairs(rng, pool_name, shape, pools)
            if pairs:
                runs.append(run_of(pairs))
        partitions[pid] = (runs, rng.randrange(10_000), rng.randrange(20_000))
    phase = planning_phase(app, config, partitions)
    windows = phase._plan_items()
    expected = reference_plan_items(planning_phase(app, config, partitions))
    assert [len(w) for w in windows] == [len(w) for w in expected]
    for item, ref in zip(itertools.chain(*windows),
                         itertools.chain(*expected)):
        for field in ("index", "pid", "n_values", "nbytes", "disk_bytes",
                      "disk_raw", "merge_items", "launches", "window_keys",
                      "window_id", "last"):
            assert getattr(item, field) == getattr(ref, field), field
        assert len(item.sizes) == ref.n_keys
        assert phase._items_by_index[item.index] is item
        assert phase._pid_by_index[item.index] == ref.pid
        chunk, out = drive_kernel(phase, item)
        assert chunk.groups == ref.groups
        # A group's key is its run's first key object, as groupby's is.
        assert all(key is ref_key for (key, _), (ref_key, _)
                   in zip(chunk.groups, ref.groups))
        ref_pairs, ref_cost, ref_threads = reference_kernel(phase, ref)
        # Equal, and for a reducing app the same key objects; a map-only
        # app now emits each merged pair as is (its own key object, as
        # run_reference does) where the reference repeated the run's first.
        assert list(out.pairs) == ref_pairs
        if not app.map_only_output:
            assert all(a[0] is b[0] for a, b in zip(out.pairs, ref_pairs))
        assert out.nbytes == app.output_schema.size_of(ref_pairs)
        assert phase.device.launched[-1] == (ref_cost, ref_threads)
    first = {}
    for item in itertools.chain(*expected):
        first.setdefault(item.pid, item.index)
    assert phase._first_index_of_pid == first
    assert phase.keys_reduced == sum(i.n_keys for i in itertools.chain(*expected))


@pytest.mark.parametrize("app_name", sorted(APPS))
@pytest.mark.parametrize("pool_name", sorted(KEY_POOLS))
@pytest.mark.parametrize("shape", sorted(set(SHAPES)))
def test_plan_equals_reference_per_key_class(app_name, pool_name, shape):
    """Every key class and shape, under every geometry, deterministically."""
    for n, geometry in enumerate(GEOMETRIES):
        check_plan(random.Random(n), app_name, pool_name, shape, geometry)


def check_plan_seed(seed):
    rng = random.Random(seed)
    check_plan(rng, rng.choice(sorted(APPS)), rng.choice(sorted(KEY_POOLS)),
               rng.choice(SHAPES), rng.choice(GEOMETRIES))


if HAVE_HYPOTHESIS:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_plan_equals_reference(seed):
        check_plan_seed(seed)

else:    # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
    def test_plan_equals_reference(seed):
        check_plan_seed(seed)


# ------------------------- TeraSort's fixed-width hooks on 10-byte keys
#: 10-byte key pools in sort order: ties, trailing NULs, ``\xff`` bytes and
#: keys that share their first eight bytes
TERASORT_POOLS = {
    "trailing-nul": [b"\x00" * 10, b"ab" + b"\x00" * 8,
                     b"ab" + b"\x00" * 7 + b"\x01", b"abcdefgh\x00\x00",
                     b"abcdefgh\x00\xff"],
    "ties": [b"k" * 10, b"k" * 10, b"k" * 9 + b"l", b"l" * 10, b"l" * 10],
    "high-bytes": [b"\x7f" * 10, b"\x80" + b"\x00" * 9, b"\xfe" * 10,
                   b"\xff" * 9 + b"\xfe", b"\xff" * 10],
}
TERASORT_APPS = {"terasort": TeraSortApp([b"k" * 10])}


@pytest.mark.parametrize("pool_name", sorted(TERASORT_POOLS))
@pytest.mark.parametrize("shape", sorted(set(SHAPES)))
def test_terasort_plan_equals_reference(pool_name, shape):
    """The planner over TeraSort's own merge and grouping hooks, on pools
    whose keys are all ``KEY_LEN`` bytes, under every geometry."""
    for n, geometry in enumerate(GEOMETRIES):
        check_plan(random.Random(n), "terasort", pool_name, shape, geometry,
                   apps=TERASORT_APPS, pools=TERASORT_POOLS,
                   runs_per_partition=(1, 2, 3))


# --------------------------------------- merges against heapq.merge (ties)
class _CaseFoldApp(WordCountApp):
    """Overrides the public ``sort_key`` hook: keys that differ compare
    equal, so tie order is visible in the merged keys themselves."""

    def sort_key(self, key):
        return key.lower()


def _heap_merge(app, runs):
    """The ``heapq.merge`` the run merge replaced, kept as the reference."""
    import heapq
    return list(heapq.merge(*[list(r) for r in runs],
                            key=lambda kv: app.sort_key(kv[0])))


def check_merges_on_ties(app, raw_runs):
    """Equal keys in different runs come out in run order, then in-run
    order — values tell the copies apart."""
    runs = [run_of(sorted(pairs, key=lambda kv: app.sort_key(kv[0])))
            for pairs in raw_runs]
    expected = _heap_merge(app, runs)
    merged = merge_runs(app, runs)
    assert list(merged) == expected
    if len(runs) == 1:
        assert merged is runs[0]                # a lone run is not copied


_TIE_KEYS = [b"a", b"A", b"b", b"B", b"c"]
_MERGE_APPS = pytest.mark.parametrize(
    "app", [WordCountApp(), _CaseFoldApp()], ids=["identity", "sort_key-hook"])

if HAVE_HYPOTHESIS:
    _tie_runs = st.lists(
        st.lists(st.tuples(st.sampled_from(_TIE_KEYS), st.integers(0, 99)),
                 max_size=12),
        min_size=1, max_size=5)

    @_MERGE_APPS
    @given(raw_runs=_tie_runs)
    def test_merges_equal_heapq_merge_on_ties(app, raw_runs):
        check_merges_on_ties(app, raw_runs)

else:    # pragma: no cover - exercised only without hypothesis

    @_MERGE_APPS
    @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
    def test_merges_equal_heapq_merge_on_ties(app, seed):
        rng = random.Random(seed)
        check_merges_on_ties(app, [
            [(rng.choice(_TIE_KEYS), rng.randrange(100))
             for _ in range(rng.randrange(13))]
            for _ in range(rng.randint(1, 5))])


def run_wc(**cfg):
    inputs = {"f": wiki_text(300_000, seed=71)}
    return run_glasswing(WordCountApp(), inputs, das4_cluster(nodes=2),
                         JobConfig(chunk_size=65_536, storage="local",
                                   **cfg))


def test_each_key_reduced_exactly_once():
    res = run_wc()
    keys = [k for k, _ in res.output_pairs()]
    assert len(keys) == len(set(keys))
    assert res.stats["keys_reduced"] == len(keys)


def test_keys_stay_in_their_partition():
    """A key's output pairs must come from exactly one partition (the
    shuffle invariant that makes reduction correct)."""
    res = run_wc(partitions_per_node=4)
    seen = {}
    for pid, pairs in res.output.items():
        for key, _ in pairs:
            assert seen.setdefault(key, pid) == pid


def test_chunking_respects_concurrent_keys():
    res = run_wc(concurrent_keys=8, keys_per_thread=2)
    # Each reduce launch processed at most 16 keys, so the number of
    # input-stage spans is at least total_keys / 16.
    n_chunks = len(res.timeline.by_category("reduce.input"))
    total_keys = res.stats["keys_reduced"]
    assert n_chunks >= total_keys / 16


def test_reduce_reader_charges_disk_for_spilled_partitions():
    spilled = run_wc(cache_threshold=10_000, use_combiner=False)
    in_memory = run_wc(cache_threshold=1 << 30, use_combiner=False)
    d_spill = sum(s.duration for s in
                  spilled.timeline.by_category("reduce.input"))
    d_mem = sum(s.duration for s in
                in_memory.timeline.by_category("reduce.input"))
    assert d_spill > d_mem


def test_scratch_relaunches_for_huge_value_lists():
    """A key whose value list exceeds the per-launch budget relaunches
    with scratch-buffer state (§III-C)."""
    fast = run_wc(use_combiner=False)
    slow = run_wc(use_combiner=False, max_values_per_launch=8)
    # Same data, but tiny per-launch budgets force many relaunches.
    k_fast = fast.metrics.stage_time("reduce", "kernel")
    k_slow = slow.metrics.stage_time("reduce", "kernel")
    assert k_slow > k_fast
