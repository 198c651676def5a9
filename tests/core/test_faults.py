"""Tests for task-failure injection and re-execution (§III-E extension)."""

import json

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
    res = run(inputs, faults=FaultPlan(map_failures={0: 1, 2: 2, 5: 1}))
    assert_outputs_match(res.output_pairs(), ref)
    assert res.stats["task_failures"] == 4


def test_failures_cost_time(inputs):
    clean = run(inputs)
    failed = run(inputs, faults=FaultPlan(map_failures={i: 1 for i in range(6)}))
    assert failed.job_time > clean.job_time
    assert failed.metrics.wasted_seconds > 0


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
    res = run(inputs, faults=FaultPlan(map_failures={0: 1},
                                       progress_at_failure=0.0))
    # A task that dies instantly wastes (almost) no kernel time.
    assert res.metrics.wasted_seconds < 1e-3


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
    cheap = run(inputs, faults=FaultPlan(map_failures={0: 2},
                                         progress_at_failure=[0.0, 0.0]))
    dear = run(inputs, faults=FaultPlan(map_failures={0: 2},
                                        progress_at_failure=[0.0, 0.9]))
    assert dear.metrics.wasted_seconds > cheap.metrics.wasted_seconds
    assert cheap.metrics.wasted_seconds < 1e-3


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


# -- one fault ledger: the job's own spans ----------------------------------

def test_reused_plan_counts_each_run_alone(inputs):
    """A run only reads its plan, so running one plan twice gives two
    identical jobs — counts and report bytes alike."""
    plan = FaultPlan(map_failures={0: 1, 2: 2})
    first, second = run(inputs, faults=plan), run(inputs, faults=plan)
    assert first.stats["task_failures"] == second.stats["task_failures"] == 3
    assert json.dumps(first.to_report()) == json.dumps(second.to_report())


def test_clean_run_never_builds_the_span_index(inputs):
    """``stats`` counts task failures and races only for a job that can
    have any, so a clean job's result leaves the span index unbuilt."""
    assert run(inputs).timeline._index._absorbed == 0


def test_race_cut_short_by_a_crash_is_still_a_launch():
    """Node 1 crashes while split 1's second race is running: the race
    records its ``map.speculative`` span anyway (lost, its copy's run so
    far wasted), so ``stats``, the report and the spans agree.  The
    schedule is pinned to the placement it was found under."""
    plan = FaultPlan.seeded(23, n_splits=8, n_nodes=4, n_partitions=32,
                            map_rate=0.3, reduce_rate=0.2,
                            straggler_rate=0.3, node_crash_count=2,
                            crash_window=(0.0, 0.01))
    res = run_glasswing(
        WordCountApp(), {"wiki": wiki_text(1 << 20, seed=1)},
        das4_cluster(nodes=4),
        JobConfig(chunk_size=128 * 1024, speculative_execution=True,
                  batch_size=500, scheduler="static-affinity"), faults=plan)
    spans = res.timeline.by_category("map.speculative")
    assert (res.stats["speculative_launches"]
            == res.to_report()["faults"]["speculative_launches"]
            == len(spans) == 2)
    [crash] = res.timeline.by_category("node.crash", "node1")
    cut = spans[-1]
    assert (cut.name, cut.end, cut.meta["won"]) == ("node1", crash.end, False)
    assert cut.meta["wasted"] == cut.duration > 0
