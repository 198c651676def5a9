"""Unit tests for the reduce pipeline's planning and grouping."""

import pytest
from hypothesis import given, strategies as st

from repro.apps import WordCountApp
from repro.apps.datagen import wiki_text
from repro.core import JobConfig, run_glasswing
from repro.core.data import SortedRun
from repro.core.reduce_phase import _group_pairs, _merge_pairs
from repro.hw.presets import das4_cluster

from tests.core.test_intermediate import make_manager


def test_group_pairs_merges_consecutive_keys():
    pairs = [(b"a", 1), (b"a", 2), (b"b", 3), (b"c", 4), (b"c", 5)]
    groups = _group_pairs(pairs)
    assert groups == [(b"a", [1, 2]), (b"b", [3]), (b"c", [4, 5])]


def test_group_pairs_empty():
    assert _group_pairs([]) == []


def test_group_pairs_single_key():
    assert _group_pairs([(b"x", 1)] * 4) == [(b"x", [1, 1, 1, 1])]


# --------------------------------------- merges against heapq.merge (ties)
class _CaseFoldApp(WordCountApp):
    """Overrides the public ``sort_key`` hook: keys that differ compare
    equal, so tie order is visible in the merged keys themselves."""

    def sort_key(self, key):
        return key.lower()


def _heap_merge(app, runs):
    """The ``heapq.merge`` both merges were, kept as the reference."""
    import heapq
    return list(heapq.merge(*[r.pairs for r in runs],
                            key=lambda kv: app.sort_key(kv[0])))


_tie_runs = st.lists(
    st.lists(st.tuples(st.sampled_from([b"a", b"A", b"b", b"B", b"c"]),
                       st.integers(0, 99)), max_size=12),
    min_size=1, max_size=5)


@pytest.mark.parametrize("app", [WordCountApp(), _CaseFoldApp()],
                         ids=["identity", "sort_key-hook"])
@given(raw_runs=_tie_runs)
def test_merges_equal_heapq_merge_on_ties(app, raw_runs):
    """Equal keys in different runs come out in run order, then in-run
    order — values tell the copies apart."""
    runs = [SortedRun(sorted(pairs, key=lambda kv: app.sort_key(kv[0])),
                      raw_bytes=len(pairs))
            for pairs in raw_runs]
    expected = _heap_merge(app, runs)
    assert list(_merge_pairs(app, runs)) == expected
    manager = make_manager()[3]
    manager.app = app
    merged = manager._merge_runs(runs)
    assert merged.pairs == expected
    assert merged.raw_bytes == sum(r.raw_bytes for r in runs)
    assert merged.pairs is not runs[0].pairs    # a disk run owns its list


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
