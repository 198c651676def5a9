"""Tests for task-failure injection and re-execution (§III-E extension)."""

import pytest

from repro.apps import WordCountApp
from repro.apps.datagen import wiki_text
from repro.baselines.reference import run_reference
from repro.core import JobConfig, run_glasswing
from repro.core.faults import FaultPlan, NodeCrash
from repro.hw.presets import das4_cluster

from tests.conftest import assert_outputs_match

CHUNK = 65_536


@pytest.fixture(scope="module")
def inputs():
    return {"wiki": wiki_text(400_000, seed=51)}


def run(inputs, faults=None, **cfg):
    return run_glasswing(WordCountApp(), inputs, das4_cluster(nodes=2),
                         JobConfig(chunk_size=CHUNK, **cfg), faults=faults)


def test_injector_validation():
    with pytest.raises(ValueError):
        FaultPlan(progress_at_failure=1.5)
    with pytest.raises(ValueError):
        FaultPlan(map_failures={0: -1})


def test_injector_plan_semantics():
    inj = FaultPlan(map_failures={3: 2})
    assert inj.should_fail_map(3, 0)
    assert inj.should_fail_map(3, 1)
    assert not inj.should_fail_map(3, 2)
    assert not inj.should_fail_map(0, 0)


def test_output_correct_despite_failures(inputs):
    ref = run_reference(WordCountApp(), inputs)
    faults = FaultPlan(map_failures={0: 1, 2: 2, 5: 1})
    res = run(inputs, faults=faults)
    assert_outputs_match(res.output_pairs(), ref)
    assert faults.total_failures == 4


def test_failures_cost_time(inputs):
    clean = run(inputs)
    faults = FaultPlan(map_failures={i: 1 for i in range(6)})
    failed = run(inputs, faults=faults)
    assert failed.job_time > clean.job_time
    assert faults.wasted_seconds > 0


def test_failures_recorded_in_timeline(inputs):
    faults = FaultPlan(map_failures={1: 3})
    res = run(inputs, faults=faults)
    spans = res.timeline.by_category("map.task_failure")
    assert len(spans) == 3
    assert all(s.meta["split"] == 1 for s in spans)
    assert [s.meta["attempt"] for s in spans] == [0, 1, 2]


def test_failure_free_plan_is_noop(inputs):
    clean = run(inputs)
    with_empty = run(inputs, faults=FaultPlan())
    assert with_empty.job_time == pytest.approx(clean.job_time)


def test_zero_progress_failures_waste_nothing(inputs):
    faults = FaultPlan(map_failures={0: 1}, progress_at_failure=0.0)
    run(inputs, faults=faults)
    # A task that dies instantly wastes (almost) no kernel time.
    assert faults.wasted_seconds < 1e-3


# -- per-failure progress (the single-scalar generalisation) ----------------

def test_progress_spec_validation():
    """Every shape of ``progress_at_failure`` is range-checked up front,
    not at lookup time — the old scalar-only check silently accepted
    out-of-range values hidden inside sequences or mappings."""
    for bad in (-0.1, 1.5, [0.2, 1.5], {0: -0.1}, {0: [0.3, 2.0]}):
        with pytest.raises(ValueError):
            FaultPlan(map_failures={0: 1}, progress_at_failure=bad)
    for ok in (0.0, 1.0, [0.0, 0.5, 1.0], {0: 0.3, 1: [0.1, 0.9]}):
        FaultPlan(map_failures={0: 1}, progress_at_failure=ok)


def test_progress_per_attempt_sequence():
    """A sequence is indexed by attempt; past its end, the last entry
    sticks (retries keep dying at the same point)."""
    plan = FaultPlan(progress_at_failure=[0.1, 0.6, 0.9])
    assert plan.progress_for(0, 0) == 0.1
    assert plan.progress_for(7, 1) == 0.6
    assert plan.progress_for(7, 2) == 0.9
    assert plan.progress_for(7, 5) == 0.9


def test_progress_per_task_mapping():
    """A mapping resolves per task key, each value a scalar or its own
    per-attempt sequence; unmapped tasks fall back to the 0.5 default."""
    plan = FaultPlan(progress_at_failure={2: 0.25, 4: [0.0, 1.0]})
    assert plan.progress_for(2, 0) == 0.25
    assert plan.progress_for(2, 3) == 0.25
    assert plan.progress_for(4, 0) == 0.0
    assert plan.progress_for(4, 1) == 1.0
    assert plan.progress_for(9, 0) == 0.5


def test_per_failure_progress_controls_wasted_time(inputs):
    """Two failures at [0.0, then ~full] progress waste strictly more than
    two instant deaths — the wasted-work accounting sees each failure's
    own progress, not one global scalar."""
    cheap = FaultPlan(map_failures={0: 2}, progress_at_failure=[0.0, 0.0])
    dear = FaultPlan(map_failures={0: 2}, progress_at_failure=[0.0, 0.9])
    run(inputs, faults=cheap)
    run(inputs, faults=dear)
    assert dear.wasted_seconds > cheap.wasted_seconds
    assert cheap.wasted_seconds < 1e-3


def test_fault_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(reduce_failures={1: -2})
    with pytest.raises(ValueError):
        FaultPlan(stragglers={0: 0.5})    # slowdown must be >= 1
    with pytest.raises(ValueError):
        FaultPlan(node_crashes=(NodeCrash(1, 0.1), NodeCrash(1, 0.2)))
    with pytest.raises(ValueError):
        NodeCrash(node=-1, at=0.0)
    with pytest.raises(ValueError):
        NodeCrash(node=0, at=-1.0)
