"""The fault matrix (§III-E): {wordcount, terasort, kmeans} ×
{map crash, reduce crash, node crash, straggler+speculation} × {1, 3}.

Every cell asserts the headline fault-tolerance guarantee — the job
output under the fault schedule equals the fault-free golden run — plus
the bookkeeping the plan implies (re-execution counts, dead nodes,
speculative wins).  Node-crash cells run on a 4-node cluster so three
crashes still leave a survivor.
"""

import pytest

from repro.apps import KMeansApp, TeraSortApp, WordCountApp
from repro.apps.datagen import kmeans_centers, kmeans_points, teragen, wiki_text
from repro.core import JobConfig, run_glasswing
from repro.core.engine import ClusterSession, JobExecution
from repro.core.faults import FaultPlan, NodeCrash
from repro.hw.presets import das4_cluster
from repro.storage.records import NO_COMPRESSION

from tests.conftest import assert_outputs_match

NODES = 4
SEVERITIES = (1, 3)
#: The matrix pins the static policy: its strict timing assertions
#: (a fault never speeds the job up) only hold when placement ignores
#: load.  Under the dynamic policies a retry legitimately perturbs the
#: runtime pull order into a slightly different — occasionally better —
#: schedule; those policies' fault guarantees live in
#: tests/core/test_sched_faults.py.
SCHEDULER = "static-affinity"


def canonical(result):
    """Order-insensitive exact form of a job's output."""
    return sorted(result.output_pairs(), key=repr)


class AppCase:
    """One application column of the matrix."""

    #: float reductions may reassociate when runs arrive in a different
    #: order, so those apps compare tolerantly instead of byte-exactly
    exact = True

    def run(self, faults=None, config=None):
        return run_glasswing(self.app(), self.inputs(),
                             das4_cluster(nodes=NODES),
                             config or self.config(), faults=faults)

    def assert_same_output(self, res, golden):
        if self.exact:
            assert canonical(res) == canonical(golden)
        else:
            assert_outputs_match(res.output_pairs(), golden.output_pairs())


class WordCount(AppCase):
    def app(self):
        return WordCountApp()

    def inputs(self):
        return {"wiki": wiki_text(300_000, seed=71)}

    def config(self):
        return JobConfig(chunk_size=65_536, input_replication=NODES,
                         scheduler=SCHEDULER)


class TeraSort(AppCase):
    DATA = teragen(2_000, seed=72)

    def app(self):
        return TeraSortApp.from_input(self.DATA)

    def inputs(self):
        return {"tera": self.DATA}

    def config(self):
        return JobConfig(chunk_size=20_000, output_replication=1,
                         compression=NO_COMPRESSION,
                         input_replication=NODES, scheduler=SCHEDULER)


class KMeans(AppCase):
    exact = False    # float-sum reduction: value order may reassociate

    def app(self):
        return KMeansApp(kmeans_centers(16, 4, seed=74))

    def inputs(self):
        return {"points": kmeans_points(20_000, 4, seed=73)}

    def config(self):
        return JobConfig(chunk_size=65_536, input_replication=NODES,
                         scheduler=SCHEDULER)


CASES = {"wordcount": WordCount(), "terasort": TeraSort(), "kmeans": KMeans()}


@pytest.fixture(scope="module", params=sorted(CASES))
def cell(request):
    """(case, golden fault-free result) per application."""
    case = CASES[request.param]
    return case, case.run()


@pytest.mark.parametrize("count", SEVERITIES)
def test_map_crashes(cell, count):
    case, golden = cell
    plan = FaultPlan(map_failures={s: 1 for s in range(count)})
    res = case.run(faults=plan)
    case.assert_same_output(res, golden)
    assert res.stats["leaked_buffer_slots"] == 0
    assert res.stats["leaked_processes"] == 0
    assert res.metrics.reexecutions == count
    assert res.stats["task_failures"] == count
    assert res.job_time > golden.job_time


@pytest.mark.parametrize("count", SEVERITIES)
def test_reduce_crashes(cell, count):
    case, golden = cell
    # Only partitions that hold data spawn a reduce task, so target the
    # first ``count`` occupied ones.
    occupied = [pid for pid in sorted(golden.output) if golden.output[pid]]
    assert len(occupied) >= count
    plan = FaultPlan(reduce_failures={p: 1 for p in occupied[:count]})
    res = case.run(faults=plan)
    case.assert_same_output(res, golden)
    assert res.stats["leaked_buffer_slots"] == 0
    assert res.stats["leaked_processes"] == 0
    assert res.metrics.reexecutions == count
    assert res.stats["task_failures"] == count
    # The retried task may sit off the critical path, so the job is only
    # guaranteed not to get faster — but the retry always burns work.
    assert res.job_time >= golden.job_time
    assert res.metrics.wasted_seconds > 0


@pytest.mark.parametrize("count", SEVERITIES)
def test_node_crashes(cell, count):
    case, golden = cell
    # Stagger the victims through the map window; 3 crashes leave
    # a single survivor to finish the job.
    crashes = tuple(NodeCrash(node=i + 1,
                              at=golden.map_time * (0.3 + 0.2 * i))
                    for i in range(count))
    res = case.run(faults=FaultPlan(node_crashes=crashes))
    case.assert_same_output(res, golden)
    # Killed pipelines must hand every acquired buffer slot back (the
    # interrupt paths in _kernel_stage/_output_stage release on the way
    # out; the reaper drains in-flight queue slots).
    assert res.stats["leaked_buffer_slots"] == 0
    assert res.stats["leaked_processes"] == 0
    assert sorted(res.stats["dead_nodes"]) == [c.node for c in crashes]
    assert res.metrics.node_crashes == count
    assert res.metrics.reexecutions == res.stats["reexecuted_splits"]
    assert res.job_time > golden.job_time


@pytest.mark.parametrize("count", SEVERITIES)
def test_stragglers_with_speculation(cell, count):
    case, golden = cell
    plan = FaultPlan(stragglers={s: 6.0 for s in range(count)})
    cfg = case.config().with_(speculative_execution=True)
    res = case.run(faults=plan, config=cfg)
    case.assert_same_output(res, golden)
    assert res.stats["leaked_buffer_slots"] == 0
    assert res.stats["leaked_processes"] == 0
    # Stragglers are slow, not failed: nothing re-executes, and any
    # speculative win must come from an actual launch.
    assert res.metrics.reexecutions == 0
    assert res.metrics.speculative_wins <= res.metrics.speculative_launches
    assert res.job_time >= golden.job_time


def test_node_crash_degrades_gracefully():
    """The acceptance bound: losing 1 of 4 nodes mid-map costs wordcount
    strictly more than the fault-free run but less than 2x."""
    case = CASES["wordcount"]
    golden = case.run()
    plan = FaultPlan(node_crashes=(NodeCrash(node=2, at=golden.map_time / 2),))
    res = case.run(faults=plan)
    assert canonical(res) == canonical(golden)
    assert res.stats["leaked_buffer_slots"] == 0
    assert res.stats["leaked_processes"] == 0
    assert golden.job_time < res.job_time < 2 * golden.job_time
    assert res.metrics.recovery_time > 0


def test_recovery_wave_pipelines_are_in_the_slot_balance():
    """The re-execution pipelines of the recovery wave stay on the job,
    so ``leaked_buffer_slots`` covers them like the map and reduce ones."""
    case = CASES["wordcount"]
    golden = case.run()
    session = ClusterSession(das4_cluster(nodes=NODES))
    job = JobExecution(
        session, case.app(), case.inputs(), config=case.config(),
        faults=FaultPlan(
            node_crashes=(NodeCrash(node=2, at=golden.map_time / 2),)))
    job.start()
    session.run()
    assert job.result().stats["reexecuted_splits"] > 0
    assert job.recovery_phases
    assert {ph.phase_kind for ph in job.recovery_phases} == {"recovery"}
    assert job.leaked_buffer_slots == 0
    # a slot a recovery pipeline never returned shows up in the balance
    job.recovery_phases[0].pipeline.in_pool.acquire()
    session.run()
    assert job.leaked_buffer_slots == 1


def test_speculation_beats_plain_straggler():
    case = CASES["wordcount"]
    plan = lambda: FaultPlan(stragglers={3: 8.0})
    slow = case.run(faults=plan())
    spec = case.run(faults=plan(),
                    config=case.config().with_(speculative_execution=True))
    assert spec.stats["speculative_wins"] >= 1
    assert spec.job_time < slow.job_time
    assert canonical(spec) == canonical(slow)


def test_crash_after_shuffle_is_ignored():
    """The monitor only arms for the map/shuffle window: a crash time
    beyond it must leave the run untouched."""
    case = CASES["wordcount"]
    golden = case.run()
    res = case.run(faults=FaultPlan(
        node_crashes=(NodeCrash(node=1, at=golden.job_time * 10),)))
    assert res.stats["dead_nodes"] == []
    assert res.job_time == pytest.approx(golden.job_time)
    assert canonical(res) == canonical(golden)
