"""Engine edge cases: degenerate inputs, extreme configs, invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import WordCountApp
from repro.apps.datagen import wiki_text
from repro.baselines.reference import canonical_output, run_reference
from repro.core import JobConfig, run_glasswing
from repro.core.api import stable_hash
from repro.core.faults import FaultPlan, TaskFailedError
from repro.hw.presets import das4_cluster

from tests.conftest import assert_outputs_match


def test_empty_input_file():
    res = run_glasswing(WordCountApp(), {"empty": b""},
                        das4_cluster(nodes=2), JobConfig(chunk_size=1024))
    assert list(res.output_pairs()) == []
    assert res.job_time >= 0.0


def test_single_record_input():
    res = run_glasswing(WordCountApp(), {"one": b"hello world hello\n"},
                        das4_cluster(nodes=3), JobConfig(chunk_size=1024))
    assert sorted(res.output_pairs()) == [(b"hello", 2), (b"world", 1)]


def test_input_smaller_than_chunk():
    data = wiki_text(5_000, seed=61)
    res = run_glasswing(WordCountApp(), {"tiny": data},
                        das4_cluster(nodes=1),
                        JobConfig(chunk_size=1 << 20))
    assert_outputs_match(res.output_pairs(),
                         run_reference(WordCountApp(), {"tiny": data}))
    assert res.stats["splits"] == 1


def test_more_nodes_than_chunks():
    data = wiki_text(20_000, seed=62)
    res = run_glasswing(WordCountApp(), {"f": data}, das4_cluster(nodes=8),
                        JobConfig(chunk_size=16_384))
    assert_outputs_match(res.output_pairs(),
                         run_reference(WordCountApp(), {"f": data}))


def test_multiple_input_files():
    files = {f"f{i}": wiki_text(30_000, seed=63 + i) for i in range(3)}
    res = run_glasswing(WordCountApp(), files, das4_cluster(nodes=2),
                        JobConfig(chunk_size=16_384))
    assert_outputs_match(res.output_pairs(),
                         run_reference(WordCountApp(), files))


def test_whitespace_only_input():
    res = run_glasswing(WordCountApp(), {"blank": b"   \n \n  \n"},
                        das4_cluster(nodes=2), JobConfig(chunk_size=4))
    assert list(res.output_pairs()) == []


def test_extreme_partition_counts():
    data = wiki_text(50_000, seed=64)
    ref = run_reference(WordCountApp(), {"f": data})
    for P in (1, 64):
        res = run_glasswing(WordCountApp(), {"f": data},
                            das4_cluster(nodes=2),
                            JobConfig(chunk_size=16_384,
                                      partitions_per_node=P))
        assert_outputs_match(res.output_pairs(), ref)


def test_result_times_are_consistent():
    data = wiki_text(100_000, seed=65)
    res = run_glasswing(WordCountApp(), {"f": data}, das4_cluster(nodes=2),
                        JobConfig(chunk_size=16_384))
    assert res.job_time == pytest.approx(
        res.map_time + res.merge_delay + res.reduce_time, rel=1e-6)
    assert res.map_time > 0
    assert res.reduce_time > 0


@pytest.mark.parametrize("metrics_interval", [None, 0.001])
def test_exhausted_attempts_surface_from_the_run(metrics_interval):
    """A failing orchestrator raises out of ``run_glasswing`` — also with
    telemetry on, where the run's owner subscribes to its completion (a
    subscriber would otherwise count as having handled the failure)."""
    config = JobConfig(chunk_size=8192, max_attempts=2,
                       metrics_interval=metrics_interval)
    with pytest.raises(TaskFailedError, match="split 0"):
        run_glasswing(WordCountApp(), {"f": wiki_text(30_000, seed=4)},
                      das4_cluster(nodes=2), config,
                      faults=FaultPlan(map_failures={0: 5}))


def test_stable_hash_is_deterministic_across_types():
    assert stable_hash(b"abc") == stable_hash("abc")
    assert stable_hash((1, 2)) == stable_hash((1, 2))
    assert stable_hash(b"abc") != stable_hash(b"abd")


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.binary(max_size=30), st.text(max_size=30),
                 st.integers(), st.tuples(st.integers(), st.integers())))
def test_stable_hash_partitions_in_range(key):
    for n in (1, 7, 64):
        assert 0 <= stable_hash(key) % n < n
