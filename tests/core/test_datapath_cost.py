"""A deterministic cost gate for the data path: no wall clock.

The hash collector exists so that an emitted pair is touched once and
everything after it costs one entry per *unique key* (§III-F).  In this
model "touched once" means one C-level pass per batch — ``map``, ``zip``,
``set``, ``sorted`` — and no Python-level call per pair.  ``sys.setprofile``
sees every Python-level call (a generator resumption counts as one), so
the number of ``call`` events a launch raises must depend on its unique
keys and not on its pairs.  TeraSort's partition stage — a partition
index per key, one stable order, the bucket cut — raises no call per
record.  On the reduce side the same holds per key: planning a partition
of one run or several and running a map-only kernel over it raise no
call per key, and a reducing kernel raises one — its ``app.reduce`` —
per key of its chunk.
"""

import gc
import sys
import tracemalloc

from repro.apps.datagen import teragen
from repro.apps.terasort import TeraSortApp
from repro.apps.wordcount import WordCountApp
from repro.core import JobConfig
from repro.core.api import merge_runs
from repro.core.collector import KeyInterner, collect_map_output
from repro.core.coordinator import ShuffleRegistry
from repro.core.costs import DEFAULT_HOST_COSTS
from repro.core.data import PairColumns
from repro.core.map_phase import MapPhase
from repro.hw.presets import CPU_TYPE1

from tests.core.test_reduce_phase import chunk_of, planning_phase, run_of

KEYS = [b"word%03d" % i for i in range(100)]


def python_calls(fn, *args, **kwargs):
    """Python-level ``call`` events raised while ``fn`` runs, and its
    result."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A collection may call back into Python (hypothesis registers a
    # ``gc.callbacks`` hook); it is not part of the data path.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
        if gc_was_enabled:
            gc.enable()
    return calls, result


def launch(n_pairs):
    return [(KEYS[i % len(KEYS)], 1) for i in range(n_pairs)]


def test_hash_collector_calls_scale_with_unique_keys_not_pairs():
    counts = []
    for n_pairs in (2_000, 20_000):
        calls, (out, _) = python_calls(
            collect_map_output, "hash", WordCountApp(), CPU_TYPE1,
            launch(n_pairs), use_combiner=True, chunk_index=0,
            interner=KeyInterner())
        assert len(out.pairs) == len(KEYS)
        assert sum(n for _, n in out.pairs) == n_pairs
        counts.append(calls)
    assert counts[0] == counts[1]


def text_records(n_words):
    """Records of ten words each, ``n_words`` words in all."""
    words = [KEYS[i % len(KEYS)] for i in range(n_words)]
    return [b" ".join(words[i:i + 10]) for i in range(0, n_words, 10)]


def test_wordcount_emit_and_combine_calls_do_not_scale_with_words():
    """The columnar emit end to end: map, then the hash table with its
    combiner — no tuple per word, so no call per word either."""
    app = WordCountApp()
    counts = []
    for n_words in (2_000, 20_000):
        records = text_records(n_words)

        def launch_and_collect():
            return collect_map_output(
                "hash", app, CPU_TYPE1, app.map_batch(records),
                use_combiner=True, chunk_index=0, interner=KeyInterner())

        # One untimed launch first: the combiner's ``Counter`` asks an ABC
        # whether a list is a Mapping, and that answer is cached per
        # process; without this the count depends on which test ran first.
        launch_and_collect()
        calls, (out, _) = python_calls(launch_and_collect)
        assert len(out.pairs) == len(KEYS)
        assert sum(n for _, n in out.pairs) == n_words
        counts.append(calls)
    assert counts[0] == counts[1]


def test_size_of_raises_no_call_beyond_its_own_frame():
    wc = launch(5_000)
    ts = [(b"k" * 10, b"v" * 90)] * 5_000
    for schema, pairs in ((WordCountApp.inter_schema, wc),
                          (TeraSortApp.inter_schema, ts)):
        calls, size = python_calls(schema.size_of, pairs)
        assert calls == 1
        assert size == sum(schema.pair_bytes(k, v) for k, v in pairs)


def test_size_of_columns_raises_no_call_beyond_its_own_frame():
    wc = WordCountApp().map_batch(text_records(5_000))
    ts = PairColumns([b"k" * 10] * 5_000, [b"v" * 90] * 5_000)
    for schema, pairs in ((WordCountApp.inter_schema, wc),
                          (TeraSortApp.inter_schema, ts)):
        calls, size = python_calls(schema.size_of, pairs)
        assert calls == 1
        assert size == sum(schema.pair_bytes(k, v) for k, v in pairs)


def test_interner_sees_the_pairs_that_leave_the_collector():
    class CountingInterner(KeyInterner):
        def __init__(self):
            super().__init__()
            self.calls = 0

        def intern(self, key):
            self.calls += 1
            return super().intern(key)

    for use_combiner in (True, False):
        interner = CountingInterner()
        out, _ = collect_map_output(
            "hash", WordCountApp(), CPU_TYPE1, launch(2_000),
            use_combiner=use_combiner, chunk_index=0, interner=interner)
        assert interner.calls == len(out.pairs)
        assert len(out.pairs) == (len(KEYS) if use_combiner else 2_000)


# ------------------------------------------------------ the partition stage
class _Sink:
    """Node, disk, timeline and manager of a one-node map phase: every
    call the stage makes of them returns at once."""

    node_id = 0
    name = "node0"
    now = 0.0

    def __init__(self):
        self.disk = self
        self.runs = {}

    def host_work(self, threads, seconds):
        return None

    def write(self, nbytes, stream):
        return iter(())

    def record(self, *args, **kwargs):
        pass

    def add_block(self, block, pids):
        for pid in pids:
            self.runs[pid] = block.bucket(pid)


def partition_phase(app, n_partitions):
    """A ``MapPhase`` holding just what its partition stage reads, on a
    one-node cluster: every partition is local."""
    phase = object.__new__(MapPhase)
    sink = _Sink()
    phase.app, phase.config, phase.costs = app, JobConfig(), DEFAULT_HOST_COSTS
    phase.sim = phase.node = phase.timeline = sink
    phase.registry = ShuffleRegistry(1, n_partitions)
    phase.managers = {0: sink}
    phase.recovery, phase.device_key, phase._acc = False, None, {}
    return phase, sink


def test_terasort_partition_stage_calls_do_not_scale_with_records():
    """One single-batch split through the partition stage: a partition
    index per key, one stable order and one gather, then one run per
    partition — no call per record."""
    counts = []
    for n_records in (2_000, 20_000):
        data = teragen(n_records, seed=5)
        app = TeraSortApp.from_input(data, sample_every=97)
        records = app.record_format.split_records(data)
        out, _ = collect_map_output("buffer", app, CPU_TYPE1,
                                    app.map_batch(records),
                                    use_combiner=False, chunk_index=0)
        # One uncounted pass first: numpy and ``Counter`` cache what they
        # look up on a first call (see the WordCount gate above).
        list(partition_phase(app, 4)[0]._partition(out))
        phase, sink = partition_phase(app, 4)
        calls, _ = python_calls(lambda: list(phase._partition(out)))
        assert sorted(sink.runs) == [0, 1, 2, 3]
        merged = [k for pid in range(4) for k, _ in sink.runs[pid]]
        assert merged == sorted(k for k, _ in out.pairs)
        counts.append(calls)
    assert counts[0] == counts[1]


# ------------------------------------------------- a TeraSort split, whole
def terasort_datapath(app, data):
    """A split's records through the data path: read as one array, mapped
    in two batches, joined and put in (partition, key) order on the map
    side, cut into three runs that the reduce side merges and groups."""
    records = app.record_format.split_records(data)
    half = len(records) // 2
    pairs = PairColumns.concat([app.map_batch(records[:half]),
                                app.map_batch(records[half:])])
    pids = app.partition_batch(pairs.keys, 4)
    pairs = pairs.take(app.sort_order(pairs.keys, pids))
    third = len(pairs) // 3
    runs = [pairs[:third], pairs[third:2 * third], pairs[2 * third:]]
    merged = merge_runs(app, runs[::-1])
    return merged, app.group_sizes(merged.keys)


def allocated_blocks(fn, *args):
    """Memory blocks ``fn`` allocates and leaves alive (with its result),
    as ``tracemalloc`` counts them."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        result = fn(*args)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        if gc_was_enabled:
            gc.enable()
    del result
    return sum(stat.count for stat in snapshot.statistics("filename"))


def test_terasort_split_calls_and_blocks_do_not_scale_with_records():
    """No Python object and no Python-level call per record from the split
    read to the reduce input: the records stay one array, the columns
    views and gathers of it."""
    calls, blocks = [], []
    for n_records in (2_000, 20_000):
        data = teragen(n_records, seed=9)
        app = TeraSortApp.from_input(data, sample_every=97)
        terasort_datapath(app, data)        # numpy's first-call caches
        n_calls, (merged, sizes) = python_calls(terasort_datapath, app, data)
        assert len(merged) == n_records == sum(sizes)
        assert [k for k, _ in merged] == sorted(
            data[i:i + 10] for i in range(0, len(data), 100))
        calls.append(n_calls)
        blocks.append(allocated_blocks(terasort_datapath, app, data))
    assert calls[0] == calls[1]
    # A few dozen at either size: the result's arrays plus what numpy's
    # temporaries leave in the interpreter's free lists (the exact number
    # moves by a handful from run to run).  One object per record would
    # be 2,000 and 20,000.
    assert max(blocks) < 64


# ------------------------------------------------------------ reduce side
def partition_of(pairs, n_runs):
    """A partition holding ``n_runs`` sorted runs dealt from ``pairs``
    round-robin.  One run is the common case on a large cluster; several
    merge through one ``app.sort_order`` and one gather."""
    runs = [sorted(pairs[i::n_runs]) for i in range(n_runs)]
    return {0: ([run_of(run) for run in runs], 0, 0)}


def one_run_partition(pairs):
    """A partition holding one sorted run."""
    return partition_of(pairs, 1)


def test_terasort_reduce_calls_do_not_scale_with_keys():
    """Planning plus every kernel call of one TeraSort partition of one run
    and of three: the runs merge, the merged columns are cut at key
    boundaries and emitted as they are."""
    for n_runs in (1, 3):
        check_terasort_reduce_calls(n_runs)


def check_terasort_reduce_calls(n_runs):
    app = TeraSortApp([b"k" * 10])
    # One launch window and one simulation item at both sizes.
    config = JobConfig(concurrent_keys=1 << 15, keys_per_thread=1,
                       batch_size=1 << 15)
    counts = []
    for n_keys in (2_000, 20_000):
        pairs = [(b"%010d" % i, b"v" * 90) for i in range(n_keys)]
        phase = planning_phase(app, config, partition_of(pairs, n_runs))

        def plan_and_reduce():
            for window in phase._plan_items():
                for item in window:
                    for _ in phase._kernel(chunk_of(item)):
                        pass

        calls, _ = python_calls(plan_and_reduce)
        assert phase.keys_reduced == n_keys
        counts.append(calls)
    assert counts[0] == counts[1]


def test_reducing_kernel_calls_one_reduce_per_key_and_nothing_else():
    """A reducing kernel builds its chunk's groups at kernel time; beyond
    one ``app.reduce`` per key its calls are the same for every chunk,
    whatever its key count or the partition's, of one run or three."""
    for n_runs in (1, 3):
        check_reducing_kernel_calls(n_runs)


def check_reducing_kernel_calls(n_runs):
    app = WordCountApp()
    config = JobConfig(concurrent_keys=64, keys_per_thread=4)  # 256 keys
    beyond_reduce = set()
    chunk_keys = set()
    for n_keys in (2_000, 20_000):
        pairs = [(b"w%06d" % i, 1) for i in range(n_keys) for _ in range(3)]
        phase = planning_phase(app, config, partition_of(pairs, n_runs))
        for window in phase._plan_items():
            for item in window:
                chunk = chunk_of(item)
                calls, _ = python_calls(lambda: list(phase._kernel(chunk)))
                beyond_reduce.add(calls - chunk.n_keys)
                chunk_keys.add(chunk.n_keys)
        assert phase.keys_reduced == n_keys
    assert chunk_keys == {256, 2_000 % 256, 20_000 % 256}
    assert len(beyond_reduce) == 1
