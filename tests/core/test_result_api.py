"""Tests for the GlasswingResult public surface."""

import pytest

from repro.apps import TeraSortApp, WordCountApp
from repro.apps.datagen import teragen, wiki_text
from repro.core import JobConfig, run_glasswing
from repro.hw.presets import das4_cluster
from repro.storage.records import NO_COMPRESSION


@pytest.fixture(scope="module")
def result():
    inputs = {"wiki": wiki_text(150_000, seed=141)}
    return run_glasswing(WordCountApp(), inputs, das4_cluster(nodes=2),
                         JobConfig(chunk_size=32_768))


def test_output_pairs_iterates_partition_order(result):
    pids = sorted(result.output)
    expected = [pair for pid in pids for pair in result.output[pid]]
    assert list(result.output_pairs()) == expected


def test_sorted_output_is_canonical(result):
    out = result.sorted_output()
    keys = [k for k, _ in out]
    assert keys == sorted(keys)
    assert len(out) == len(list(result.output_pairs()))


def test_sorted_output_uses_natural_key_order():
    """Integer keys sort numerically, not as strings ("10" < "2")."""

    from repro.storage.records import KVSchema

    class CountByLength(WordCountApp):
        """Wordcount variant keyed by word length (int keys)."""
        name = "countlen"
        has_combiner = False
        inter_schema = KVSchema("cl-inter", key_bytes=lambda k: 4,
                                value_bytes=lambda v: 4)
        output_schema = KVSchema("cl-out", key_bytes=lambda k: 4,
                                 value_bytes=lambda v: 8)

        def map_batch(self, records):
            words = b"\n".join(records).split()
            return [(2 * len(word), 1) for word in words]

    inputs = {"wiki": wiki_text(60_000, seed=143)}
    res = run_glasswing(CountByLength(), inputs, das4_cluster(nodes=2),
                        JobConfig(chunk_size=16_384, use_combiner=False))
    keys = [k for k, _ in res.sorted_output()]
    assert all(isinstance(k, int) for k in keys)
    assert max(keys) > 9          # the repr-sort bug needs 2-digit keys
    assert keys == sorted(keys)   # 2 before 10, not "10" < "2"


def test_sorted_output_survives_mixed_key_types():
    """Heterogeneous keys fall back to type-tagged ordering, not a crash."""
    from repro.core.engine import GlasswingResult

    probe = GlasswingResult.__new__(GlasswingResult)
    probe.output = {0: [(10, 1), ("b", 2)], 1: [(2, 3), ("a", 4)]}
    out = probe.sorted_output()
    assert out == [(2, 3), (10, 1), ("a", 4), ("b", 2)]


def test_result_metadata(result):
    assert result.app_name == "wordcount"
    assert result.n_nodes == 2
    assert isinstance(result.config, JobConfig)
    assert result.stats["splits"] > 0
    assert len(result.timeline) > 0


def test_partition_ordering_carries_total_order():
    """For TeraSort, partition-ordered iteration IS the sorted output."""
    data = teragen(1_500, seed=142)
    app = TeraSortApp.from_input(data, sample_every=19)
    res = run_glasswing(app, {"t": data}, das4_cluster(nodes=3),
                        JobConfig(chunk_size=30_000, output_replication=1,
                                  compression=NO_COMPRESSION))
    keys = [k for k, _ in res.output_pairs()]
    assert keys == sorted(keys)
    # Partition boundary property: max(partition p) <= min(partition p+1).
    pids = sorted(res.output)
    for a, b in zip(pids, pids[1:]):
        if res.output[a] and res.output[b]:
            assert res.output[a][-1][0] <= res.output[b][0][0]


def test_metrics_accessible_from_result(result):
    bd = result.metrics.breakdown("map", "node0")
    assert bd["kernel"] > 0
    # result.map_time also covers the post-pipeline push drain, so the
    # pipelines' extent is a (close) lower bound.
    map_elapsed = result.timeline.span_extent("map.elapsed")
    assert map_elapsed <= result.map_time
    assert map_elapsed >= 0.8 * result.map_time
