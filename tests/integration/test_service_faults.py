"""Fault matrix with a shared cluster: executor-crash isolation.

Extends the §III-E fault matrix to multi-tenancy: two jobs run
concurrently on one 4-node cluster while one of them suffers an injected
fault — a node crash mid-map, or stragglers with speculation enabled.
Service faults use *executor-crash* semantics: the crash kills the
faulted job's pipelines and intermediate state on that node, while the
neighbour job keeps using the same physical node untouched.

Every cell asserts, for **both** jobs, that the output equals the
fault-free solo golden run — the recovery wave of one tenant must be
invisible in the other tenant's data path — plus the isolation
bookkeeping (dead-node views, re-executions, leak audit).  Parametrized
over static-affinity and dynamic-locality, because recovery replanning
takes the placement policy's path.
"""

import pytest

from repro.core import JobConfig, run_glasswing
from repro.core.faults import FaultPlan, NodeCrash
from repro.hw.presets import das4_cluster
from repro.service import JobRequest, JobServer, JobSubmission, ServicePolicy

#: sampled, and what a finished job's retired gauges stored re-checked
pytestmark = pytest.mark.usefixtures("retired_gauges_hold")

NODES = 4
POLICIES = ("static-affinity", "dynamic-locality")
DATA_PATH_KEYS = ("records_mapped", "pairs_emitted", "keys_reduced",
                  "network_bytes", "splits")

#: the faulted job and its unsuspecting neighbour (both byte-exact apps)
VICTIM = JobRequest(name="victim", kind="wordcount", nbytes=32 * 1024,
                    seed=31)
NEIGHBOUR = JobRequest(name="neighbour", kind="terasort", nbytes=32 * 1024,
                       seed=32)


def base_config(scheduler, **extra):
    return JobConfig(chunk_size=8 * 1024, partitions_per_node=1,
                     scheduler=scheduler, **extra)


def materialize(request, scheduler, faults=None, **extra):
    app, inputs, overrides = request.materialize()
    cfg = base_config(scheduler, **extra).with_(**overrides)
    return app, inputs, cfg, faults


def solo_golden(request, scheduler):
    app, inputs, cfg, _ = materialize(request, scheduler)
    return run_glasswing(app, inputs, das4_cluster(nodes=NODES), cfg)


def run_pair(scheduler, victim_faults, **victim_extra):
    server = JobServer(das4_cluster(nodes=NODES),
                       policy=ServicePolicy(max_running=2),
                       config=base_config(scheduler))
    for request, faults, extra in ((VICTIM, victim_faults, victim_extra),
                                   (NEIGHBOUR, None, {})):
        app, inputs, cfg, faults = materialize(request, scheduler, faults,
                                               **extra)
        server.submit(JobSubmission(name=request.name, app=app,
                                    inputs=inputs, config=cfg,
                                    faults=faults))
    return server.run()


@pytest.fixture(scope="module", params=POLICIES)
def scheduler(request):
    return request.param


@pytest.fixture(scope="module")
def goldens(scheduler):
    return {r.name: solo_golden(r, scheduler) for r in (VICTIM, NEIGHBOUR)}


def assert_cell(result, goldens, scheduler):
    """The invariants every fault cell shares."""
    assert result.peak_running == 2, "the jobs must actually overlap"
    for record in result.records:
        assert record.outcome == "completed"
        assert record.leaked_buffer_slots == 0
        got = record.result.sorted_output()
        assert got == goldens[record.name].sorted_output(), record.name
    # the neighbour's data path is untouched by the victim's fault
    neighbour = result.job("neighbour").result
    for key in DATA_PATH_KEYS:
        assert neighbour.stats[key] == goldens["neighbour"].stats[key], key
    assert neighbour.stats["dead_nodes"] == []
    assert neighbour.stats["task_failures"] == 0


def test_node_crash_is_private_to_the_victim(goldens, scheduler):
    """One tenant's node crash triggers *its* recovery wave only."""
    crash_at = goldens["victim"].map_time * 0.5
    result = run_pair(scheduler,
                      FaultPlan(node_crashes=(NodeCrash(node=1,
                                                        at=crash_at),)))
    assert_cell(result, goldens, scheduler)
    victim = result.job("victim").result
    assert victim.stats["dead_nodes"] == [1]
    assert victim.metrics.node_crashes == 1
    assert victim.stats["reexecuted_splits"] >= 1
    # shuffle volume may legitimately differ from the golden (recovery
    # re-pushes), but the leak audit and output equality above hold
    assert victim.stats["leaked_buffer_slots"] == 0


def test_straggler_speculation_under_contention(goldens, scheduler):
    """Speculative duplicates race their stragglers on a shared cluster
    without corrupting either tenant's output."""
    result = run_pair(scheduler, FaultPlan(stragglers={0: 8.0}),
                      speculative_execution=True)
    assert_cell(result, goldens, scheduler)
    victim = result.job("victim").result
    # stragglers are slow, not dead: no failures, no re-executions
    assert victim.stats["task_failures"] == 0
    assert victim.metrics.reexecutions == 0
    assert victim.stats["speculative_wins"] <= \
        victim.stats["speculative_launches"]


def test_concurrent_crash_matches_solo_crash_semantics(goldens, scheduler):
    """The victim's recovered output also equals its *faulted* solo run:
    recovery is deterministic under contention too."""
    crash_at = goldens["victim"].map_time * 0.5
    plan = lambda: FaultPlan(node_crashes=(NodeCrash(node=1, at=crash_at),))
    app, inputs, cfg, _ = materialize(VICTIM, scheduler)
    solo_faulted = run_glasswing(app, inputs, das4_cluster(nodes=NODES),
                                 cfg, faults=plan())
    result = run_pair(scheduler, plan())
    contended = result.job("victim").result
    assert contended.sorted_output() == solo_faulted.sorted_output()
    assert contended.stats["dead_nodes"] == solo_faulted.stats["dead_nodes"]
