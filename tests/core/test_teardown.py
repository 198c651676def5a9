"""A finished job frees itself: a deterministic memory gate, no wall clock.

``JobExecution.close()`` cuts the cycles a job's graph is made of (phase
↔ pipeline through the bound stage bodies, the speculation and elastic
controllers ↔ the job) and lets go of its phases, managers, scheduler
and registry.  The shuffle data is then freed by refcounting the moment
the caller drops the job: with the cyclic collector disabled, a
``gc.collect()`` after the run finds next to nothing, and no closed
job's ``JobExecution``, phase, pipeline or manager is still alive.

Each run here ends with the event heap drained, so a ``Process`` still
alive afterwards waits on an event nothing will fire: a leak.
"""

import gc
import hashlib
import sys

import pytest

from repro.apps import WordCountApp
from repro.apps.datagen import kmeans_centers, kmeans_points, wiki_text
from repro.apps.drivers import kmeans_iterate
from repro.core import JobConfig, run_glasswing
from repro.core.engine import ClusterSession, JobExecution
from repro.core.faults import FaultPlan, NodeCrash
from repro.core.intermediate import IntermediateManager
from repro.core.map_phase import MapPhase
from repro.core.pipeline import Pipeline
from repro.hw.presets import das4_cluster
from repro.service import (JobServer, JobSubmission, ServicePolicy,
                           synthetic_trace)
from repro.simt.core import Event, Process

#: objects the collector may still find once a run returned: the
#: session's own few cycles, never a job's graph (26,318 before close())
MAX_CYCLIC_GARBAGE = 1_000

JOB_GRAPH = (JobExecution, MapPhase, Pipeline, IntermediateManager)


def _alive(kinds):
    return [o for o in gc.get_objects() if isinstance(o, kinds)
            and (not isinstance(o, Process) or o.is_alive)]


@pytest.fixture
def freed_by_refcount():
    """Run the test body with the cyclic collector disabled, starting
    from a clean heap; yields the check that the run freed itself.

    Objects an earlier test still holds (a module-scoped fixture's jobs)
    are the baseline, kept alive here so no new object reuses their ids.
    """
    # An earlier test's failure is kept for post-mortem debugging
    # (``sys.last_*``) until the runner drops it, after this set-up: its
    # traceback would then be freed as cyclic garbage inside the gate.
    for name in ("last_type", "last_value", "last_traceback", "last_exc"):
        if hasattr(sys, name):
            delattr(sys, name)
    gc.collect()
    before = _alive(JOB_GRAPH + (Process,))
    known = {id(o) for o in before}
    gc.disable()

    def check():
        new = [type(o).__name__ for o in _alive(JOB_GRAPH + (Process,))
               if id(o) not in known]
        assert new == []
        assert gc.collect() < MAX_CYCLIC_GARBAGE

    try:
        yield check
    finally:
        gc.enable()


# ------------------------------------------------------------- the gate

def test_64_node_job_leaves_no_cyclic_garbage(freed_by_refcount):
    """The 64-node WordCount of the event-count gate."""
    result = run_glasswing(
        WordCountApp(), {"wiki": wiki_text(64 * 1024, seed=42)},
        das4_cluster(nodes=64),
        JobConfig(chunk_size=512, partitions_per_node=1,
                  scheduler="static-affinity"))
    assert result.job_time == 0.013160126733333347
    assert result.stats["leaked_processes"] == 0
    freed_by_refcount()
    # what a result keeps is still there
    assert len(result.timeline.spans) == 9275
    assert result.output and result.stats["keys_reduced"] > 0


def test_service_run_holds_no_finished_job(freed_by_refcount):
    server = JobServer(das4_cluster(nodes=4),
                       policy=ServicePolicy(max_running=4),
                       config=JobConfig(chunk_size=8 * 1024,
                                        partitions_per_node=1),
                       metrics_interval=0.0005)
    for request in synthetic_trace(12, seed=7, mean_interarrival=0.002):
        server.submit(request)
    result = server.run()
    assert len(result.completed) == 12
    assert all(r.execution is None for r in result.records)
    freed_by_refcount()
    assert result.telemetry.samples and result.leaked_buffer_slots == 0


def test_dag_rounds_hold_no_finished_stage(freed_by_refcount):
    run = kmeans_iterate({"points.bin": kmeans_points(4_000, 4, seed=3)},
                         kmeans_centers(4, 4), das4_cluster(nodes=4),
                         JobConfig(chunk_size=16 * 1024),
                         max_iterations=3, tolerance=0.0)
    assert run.iterations == 3
    freed_by_refcount()
    assert run.runner.cache_stats()["hit_bytes"] > 0


def test_a_process_stuck_past_the_job_end_is_a_leak():
    """``leaked_processes`` counts the job's processes, and the ones
    they start, that nothing will resume once the job has ended."""
    session = ClusterSession(das4_cluster(nodes=2))
    job = JobExecution(session, WordCountApp(),
                       {"wiki": wiki_text(16 * 1024, seed=3)},
                       config=JobConfig(chunk_size=4096))
    never = Event(session.sim)

    def wait():
        yield never

    def stuck():
        session.sim.process(wait(), name="stuck.child")
        yield from wait()

    session.sim.process(stuck(), name="stuck", group=job.procs)
    session.sim.process(stuck(), name="not-the-jobs")
    job.start()
    session.run()
    assert job.result().stats["leaked_processes"] == 2


# ----------------------------------------------------------- kill paths

def test_close_twice_is_a_no_op(freed_by_refcount):
    session = ClusterSession(das4_cluster(nodes=4))
    job = JobExecution(session, WordCountApp(),
                       {"wiki": wiki_text(32 * 1024, seed=3)},
                       config=JobConfig(chunk_size=4096))
    job.start()
    session.run()
    result = job.result()
    job.close()
    job.close()
    assert job.map_phases == job.reduce_phases == [] and job.managers == {}
    del job
    freed_by_refcount()
    assert result.stats["leaked_buffer_slots"] == 0


def test_crashed_and_recovered_job_closes_cleanly(freed_by_refcount):
    """Node crashes, task failures, stragglers and speculative races
    (the schedule of ``test_race_cut_short_by_a_crash_is_still_a_launch``,
    whose orphaned copy runs on after its primary's node died)."""
    plan = FaultPlan.seeded(23, n_splits=8, n_nodes=4, n_partitions=32,
                            map_rate=0.3, reduce_rate=0.2,
                            straggler_rate=0.3, node_crash_count=2,
                            crash_window=(0.0, 0.01))
    session = ClusterSession(das4_cluster(nodes=4))
    job = JobExecution(
        session, WordCountApp(), {"wiki": wiki_text(1 << 20, seed=1)},
        config=JobConfig(chunk_size=128 * 1024, speculative_execution=True,
                         batch_size=500, scheduler="static-affinity"),
        faults=plan)
    job.start()
    session.run()
    result = job.result()
    job.close()
    job.close()
    del job
    freed_by_refcount()
    stats = result.stats
    assert stats["dead_nodes"] and stats["speculative_launches"] == 2
    assert stats["repushed_runs"] + stats["reexecuted_splits"] > 0
    assert stats["leaked_buffer_slots"] == 0
    assert stats["leaked_processes"] == 0


#: sha256 of tenant ``b``'s sorted output and spans below, taken with
#: ``close()`` made a no-op.  A span's ``op`` is left out: it is an
#: identity token drawn from a process-wide counter.
NEIGHBOUR_DIGEST = \
    "1982d67d12a6cc465a2c3aa8e4ca211d3e309443d1f7be6fd420b455c37c8b0c"

#: tenant ``a`` ends at 0.0091 s, tenant ``b`` at 0.0126 s
LATE_CRASH_AT = 0.011


def _digest(result):
    h = hashlib.sha256(repr(result.sorted_output()).encode())
    for s in result.timeline.spans:
        meta = sorted((k, v) for k, v in s.meta.items() if k != "op")
        h.update(repr((s.category, s.name, s.start, s.end, meta)).encode())
    return h.hexdigest()


def test_a_closed_tenants_late_timers_leave_its_neighbour_alone(
        freed_by_refcount):
    """Tenant ``a``'s node-crash timer is still in the heap when its job
    ends and is closed; it fires while tenant ``b`` runs, and so does
    whatever its speculation watchdog left behind.  ``b`` sees exactly
    the run it saw before jobs were closed."""
    config = JobConfig(chunk_size=4096, partitions_per_node=1,
                       scheduler="static-affinity")
    server = JobServer(das4_cluster(nodes=4),
                       policy=ServicePolicy(max_running=2), config=config,
                       metrics_interval=0.0005)
    server.submit(JobSubmission(
        name="a", app=WordCountApp(), tenant="alice",
        inputs={"a.txt": wiki_text(24 * 1024, seed=1)},
        config=config.with_(speculative_execution=True),
        faults=FaultPlan(stragglers={5: 8.0},
                         node_crashes=(NodeCrash(node=1,
                                                 at=LATE_CRASH_AT),))))
    server.submit(JobSubmission(
        name="b", app=WordCountApp(), tenant="bob",
        inputs={"b.txt": wiki_text(64 * 1024, seed=2)}))
    result = server.run()
    a, b = result.job("a"), result.job("b")
    assert a.started_at == b.started_at == 0.0
    assert a.finished_at < LATE_CRASH_AT < b.finished_at
    assert a.result.stats["dead_nodes"] == []
    assert a.result.stats["speculative_launches"] == 1
    assert _digest(b.result) == NEIGHBOUR_DIGEST
    freed_by_refcount()
