"""Tests for the intermediate-data manager (cache, flush, merge)."""

import pytest

from repro.apps.wordcount import WordCountApp
from repro.core.config import JobConfig
from repro.core.data import MapBlock, PairColumns
from repro.core.intermediate import IntermediateManager
from repro.hw import Node
from repro.hw.presets import type1_node
from repro.simt import Simulator, Timeline
from repro.storage.records import KVSchema


def make_manager(owned=(0, 1), cache_threshold=10_000, max_files=2,
                 merger_threads=None, partitions_per_node=None):
    sim = Simulator()
    tl = Timeline()
    node = Node(sim, type1_node(), 0, timeline=tl)
    app = WordCountApp()
    P = partitions_per_node or len(owned)
    cfg = JobConfig(cache_threshold=cache_threshold,
                    max_intermediate_files=max_files,
                    partitions_per_node=P,
                    merger_threads=merger_threads)
    mgr = IntermediateManager(sim, node, app, cfg, tl, list(owned))
    return sim, tl, node, mgr


#: 20 bytes a pair
SCHEMA = KVSchema("twenty", key_bytes=6, value_bytes=6)


def add_run(mgr, pid, words):
    """Deliver the sorted ``words`` to ``mgr`` as a split's one bucket, of
    partition ``pid``: like the shuffle, only if it is not empty."""
    keys = sorted(words)
    block = MapBlock(0, PairColumns(keys, [1] * len(keys)),
                     [pid] * len(keys), pid + 1, SCHEMA)
    mgr.add_block(block, block.pids)


def drive(sim, gen):
    p = sim.process(gen)
    sim.run()
    return p.value


def test_add_and_read_back():
    sim, tl, node, mgr = make_manager()
    add_run(mgr, 0, [b"a", b"b"])
    add_run(mgr, 0, [b"c"])
    drive(sim, mgr.finalize())
    runs, disk_bytes, disk_raw = mgr.read_partition(0)
    pairs = [p for r in runs for p in r]
    assert sorted(pairs) == [(b"a", 1), (b"b", 1), (b"c", 1)]


def test_unowned_partition_rejected():
    sim, tl, node, mgr = make_manager(owned=(0,))
    with pytest.raises(KeyError):
        add_run(mgr, 5, [b"x"])


def test_empty_run_ignored():
    sim, tl, node, mgr = make_manager()
    add_run(mgr, 0, [])
    assert mgr.cached_bytes == 0 and mgr.read_partition(0)[0] == []


def test_cache_threshold_triggers_flush():
    sim, tl, node, mgr = make_manager(cache_threshold=1_000)
    # 100 pairs x 20 bytes = 2000 > 1000: flush must fire.
    add_run(mgr, 0, [b"w%03d" % i for i in range(100)])
    sim.run()
    assert mgr.cached_bytes <= 1_000
    assert mgr.read_partition(0)[1] > 0     # bytes to read off disk
    assert mgr.spilled_bytes > 0
    assert len(tl.by_category("merge.flush")) >= 1


def test_below_threshold_stays_in_memory():
    sim, tl, node, mgr = make_manager(cache_threshold=1_000_000)
    add_run(mgr, 0, [b"a", b"b", b"c"])
    sim.run()
    assert mgr.cached_bytes > 0
    assert mgr.read_partition(0)[1] == 0


def test_flush_merges_runs_sorted():
    sim, tl, node, mgr = make_manager(cache_threshold=100)
    add_run(mgr, 0, [b"banana", b"date"])
    add_run(mgr, 0, [b"apple", b"cherry"])
    sim.run()
    drive(sim, mgr.finalize())
    runs, _, _ = mgr.read_partition(0)
    for r in runs:
        keys = list(r.keys)
        assert keys == sorted(keys)


def test_compaction_bounds_file_count():
    sim, tl, node, mgr = make_manager(cache_threshold=50, max_files=2)
    for batch in range(8):
        add_run(mgr, 0, [b"k%d-%d" % (batch, i) for i in range(10)])
        sim.run()
    drive(sim, mgr.finalize())
    # At most two files reach the reader, and all 80 pairs survive.
    runs, _, _ = mgr.read_partition(0)
    assert len(runs) <= 2
    assert sum(len(r) for r in runs) == 80


def test_merge_delay_recorded():
    sim, tl, node, mgr = make_manager(cache_threshold=50, max_files=1)
    for batch in range(6):
        add_run(mgr, 0, [b"x%d-%d" % (batch, i) for i in range(10)])
    drive(sim, mgr.finalize())
    spans = tl.by_category("merge.delay")
    assert len(spans) == 1
    assert mgr.merge_delay == spans[0].duration
    assert mgr.merge_delay > 0


def test_finalize_idempotent_state():
    sim, tl, node, mgr = make_manager()
    add_run(mgr, 1, [b"z"])
    drive(sim, mgr.finalize())
    runs, _, _ = mgr.read_partition(1)
    assert [p for r in runs for p in r] == [(b"z", 1)]


def test_data_survives_flush_and_compact_cycles():
    """No pair is ever lost or duplicated through the cache machinery."""
    sim, tl, node, mgr = make_manager(owned=(0, 1), cache_threshold=200,
                                      max_files=1)
    expected = []
    for batch in range(10):
        words = [b"w%02d-%02d" % (batch, i) for i in range(12)]
        pid = batch % 2
        add_run(mgr, pid, words)
        expected.extend((w, 1) for w in words)
        sim.run()
    drive(sim, mgr.finalize())
    got = []
    for pid in (0, 1):
        runs, _, _ = mgr.read_partition(pid)
        for r in runs:
            got.extend(r)
    assert sorted(got) == sorted(expected)


def test_more_merger_threads_speed_up_finalize():
    def delay_with(mergers, partitions):
        sim, tl, node, mgr = make_manager(
            owned=tuple(range(partitions)), cache_threshold=100,
            max_files=1, merger_threads=mergers,
            partitions_per_node=partitions)
        for batch in range(12):
            pid = batch % partitions
            add_run(mgr, pid, [b"m%d-%d" % (batch, i) for i in range(40)])
        t0 = sim.now
        drive(sim, mgr.finalize())
        return mgr.merge_delay

    slow = delay_with(mergers=1, partitions=4)
    fast = delay_with(mergers=4, partitions=4)
    assert fast < slow
