"""Tests for the JobMetrics view over timelines."""

import pytest

from repro.core.metrics import JobMetrics
from repro.simt import Timeline


def make_metrics():
    tl = Timeline()
    # node0 map: input [0,2], kernel [1,4], output [3,5]
    tl.record("map.input", "node0", 0.0, 2.0)
    tl.record("map.kernel", "node0", 1.0, 4.0)
    tl.record("map.output", "node0", 3.0, 5.0)
    tl.record("map.elapsed", "node0", 0.0, 5.0)
    # node1 is slower on the kernel
    tl.record("map.kernel", "node1", 0.0, 6.0)
    tl.record("map.elapsed", "node1", 0.0, 6.5)
    tl.record("merge.delay", "node0", 5.0, 5.5)
    tl.record("merge.delay", "node1", 6.5, 7.5)
    tl.record("reduce.kernel", "node0", 8.0, 9.0)
    tl.record("reduce.elapsed", "node0", 8.0, 9.5)
    return JobMetrics(tl, n_nodes=2)


def test_stage_time_for_node():
    m = make_metrics()
    assert m.stage_time("map", "kernel", "node0") == 3.0
    assert m.stage_time("map", "kernel", "node1") == 6.0


def test_stage_time_defaults_to_max_across_nodes():
    m = make_metrics()
    assert m.stage_time("map", "kernel") == 6.0


def test_missing_stage_is_zero():
    m = make_metrics()
    assert m.stage_time("map", "retrieve") == 0.0
    assert m.stage_time("reduce", "input") == 0.0


def test_breakdown_has_all_stages():
    m = make_metrics()
    bd = m.breakdown("map", "node0")
    assert set(bd) == {"input", "stage", "kernel", "retrieve", "output"}
    assert bd["input"] == 2.0


def test_stage_sum():
    m = make_metrics()
    assert sum(m.breakdown("map", "node0").values()) == \
        pytest.approx(2.0 + 3.0 + 2.0)


def test_empty_timeline():
    m = JobMetrics(Timeline(), n_nodes=1)
    assert m.stage_time("map", "kernel") == 0.0


def test_breakdown_reads_the_requested_phase():
    """Regression: breakdown("reduce") must report reduce spans, not map.

    The bug iterated the map categories regardless of ``phase``; with
    identical stage names the symptom was map numbers leaking into reduce
    rows whenever the two differed.
    """
    m = make_metrics()
    bd = m.breakdown("reduce", "node0")
    assert set(bd) == {"input", "stage", "kernel", "retrieve", "output"}
    assert bd["kernel"] == 1.0          # reduce.kernel [8,9], not map's 3.0
    assert bd["input"] == 0.0           # no reduce.input recorded
    assert sum(bd.values()) == 1.0
