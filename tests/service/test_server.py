"""Lifecycle, throttling, cancellation and observability of JobServer."""

import json

import pytest

from repro.apps import WordCountApp
from repro.apps.datagen import wiki_text
from repro.core import JobConfig
from repro.hw.presets import das4_cluster
from repro.service import (JobServer, JobSubmission, ServicePolicy,
                           synthetic_trace)

# no scheduler pin: CI's service-matrix swaps the placement policy via
# $REPRO_SCHEDULER and every assertion here must hold under all of them
CONFIG = JobConfig(chunk_size=4096, partitions_per_node=1)


def make_server(policy=None, metrics_interval=None):
    return JobServer(das4_cluster(nodes=4), policy=policy, config=CONFIG,
                     metrics_interval=metrics_interval)


def wc_job(name, tenant="default", priority=1, submit_at=0.0, nbytes=2048,
           seed=0, cancel_at=None):
    return JobSubmission(name=name, app=WordCountApp(),
                         inputs={f"{name}.txt": wiki_text(nbytes, seed=seed)},
                         tenant=tenant, priority=priority,
                         submit_at=submit_at, cancel_at=cancel_at)


# -- admission decisions ---------------------------------------------------

def test_full_queue_rejects_the_overflow():
    """capacity 1, one slot: job0 dispatches, job1 queues, job2 bounces."""
    server = make_server(ServicePolicy(queue_capacity=1, max_running=1))
    for i in range(3):
        server.submit(wc_job(f"j{i}", seed=i))
    result = server.run()
    assert result.counters == {"submitted": 3, "admitted": 2, "rejected": 1,
                               "cancelled": 0, "completed": 2}
    assert result.job("j2").outcome == "rejected"
    assert result.job("j2").result is None
    assert [result.job(f"j{i}").outcome for i in range(2)] == \
        ["completed", "completed"]
    assert result.leaked_buffer_slots == 0


def test_tenant_running_throttle_keeps_a_slot_free():
    """A tenant at its running quota waits while another tenant's job
    takes the second slot it could not have."""
    policy = ServicePolicy(max_running=2, max_per_tenant_running=1)
    server = make_server(policy)
    server.submit(wc_job("a1", tenant="alice", seed=1))
    server.submit(wc_job("a2", tenant="alice", seed=2))
    server.submit(wc_job("b1", tenant="bob", seed=3, submit_at=1e-4))
    result = server.run()
    assert len(result.completed) == 3
    a1, a2, b1 = (result.job(n) for n in ("a1", "a2", "b1"))
    # a2 must wait for a1 to finish even though a slot sat free until
    # bob arrived; bob overtakes despite submitting later.
    assert a2.started_at >= a1.finished_at
    assert b1.started_at < a2.started_at
    assert result.peak_running == 2


def test_priority_class_preempts_queue_order():
    """An urgent job submitted later dispatches before a bulk one."""
    server = make_server(ServicePolicy(max_running=1))
    server.submit(wc_job("busy", seed=0))           # occupies the slot
    server.submit(wc_job("bulk", priority=2, seed=1))
    server.submit(wc_job("urgent", priority=0, seed=2, submit_at=1e-5))
    result = server.run()
    assert result.job("urgent").started_at < result.job("bulk").started_at


# -- cancellation / leak audit ---------------------------------------------

def test_cancel_before_dispatch_touches_nothing():
    """A queued job withdrawn before admission to a slot never touches
    the cluster: no execution, no result, no buffer slots — and the
    remaining jobs complete normally."""
    server = make_server(ServicePolicy(max_running=1))
    server.submit(wc_job("long", seed=4, nbytes=16 * 1024))
    server.submit(wc_job("doomed", seed=5, cancel_at=1e-6))
    server.submit(wc_job("after", seed=6))
    result = server.run()
    doomed = result.job("doomed")
    assert doomed.outcome == "cancelled"
    assert doomed.execution is None and doomed.result is None
    assert doomed.started_at is None
    assert result.counters["cancelled"] == 1
    assert result.counters["completed"] == 2
    assert result.leaked_buffer_slots == 0
    assert all(result.job(n).leaked_buffer_slots == 0
               for n in ("long", "after"))


def test_cancel_after_dispatch_is_a_noop():
    """cancel_at landing after the job started does not kill it."""
    server = make_server(ServicePolicy(max_running=1))
    server.submit(wc_job("solo", seed=7, cancel_at=1e-6))
    result = server.run()
    assert result.job("solo").outcome == "completed"
    assert result.counters["cancelled"] == 0


# -- guard rails -----------------------------------------------------------

def test_run_without_submissions_raises():
    with pytest.raises(ValueError, match="no submissions"):
        make_server().run()


def test_duplicate_job_name_raises():
    server = make_server()
    server.submit(wc_job("twin"))
    with pytest.raises(ValueError, match="duplicate"):
        server.submit(wc_job("twin"))


def test_submit_after_run_raises():
    server = make_server()
    server.submit(wc_job("one"))
    server.run()
    with pytest.raises(RuntimeError, match="already running"):
        server.submit(wc_job("late"))


# -- observability ---------------------------------------------------------

def test_service_telemetry_counters_and_trace_rows():
    server = make_server(ServicePolicy(queue_capacity=1, max_running=1),
                         metrics_interval=1e-3)
    for i in range(3):
        server.submit(wc_job(f"j{i}", seed=i))
    result = server.run()
    metrics = {m.name: m
               for m in result.telemetry.registry.sorted_metrics()}
    assert metrics["glasswing_svc_submitted_total"].value == 3
    assert metrics["glasswing_svc_admitted_total"].value == 2
    assert metrics["glasswing_svc_rejected_total"].value == 1
    assert metrics["glasswing_svc_completed_total"].value == 2
    hist = metrics["glasswing_svc_job_latency_seconds"]
    assert hist.count == 2
    # the session timeline carries the service lifecycle spans and the
    # job-tagged forks of every per-job span
    cats = {s.category for s in result.timeline.spans}
    assert {"svc.submit", "svc.reject", "svc.queue", "svc.job"} <= cats
    jobs_tagged = {s.meta.get("job") for s in result.timeline.spans
                   if "job" in s.meta}
    assert {"j0", "j1"} <= jobs_tagged


def test_report_has_per_job_sections(tmp_path):
    server = make_server()
    requests = synthetic_trace(6, seed=3, nbytes_choices=(2048,),
                               kinds=("wordcount",))
    for request in requests:
        server.submit(request)
    result = server.run()
    report = result.to_report()
    assert report["schema"] == "glasswing-service-report/1"
    assert report["counters"]["completed"] == 6
    assert report["policy"]["arbiter"] == "fair-share"
    assert len(report["jobs"]) == 6
    for row in report["jobs"]:
        assert row["outcome"] == "completed"
        assert row["leaked_buffer_slots"] == 0
        assert row["latency"] >= row["queue_wait"] >= 0
    # JSON-serialisable end to end
    json.dumps(report)
    assert set(result.latency_percentiles()) == {"p50", "p95", "p99"}


def test_a_later_jobs_time_is_its_own_extent():
    """Back to back on one slot, the second job starts at t > 0; its
    job time must still be its own extent, not the clock it ended at."""
    server = make_server(policy=ServicePolicy(max_running=1))
    for i in range(2):
        server.submit(wc_job(f"job{i}", nbytes=24 * 1024, seed=i))
    result = server.run()
    assert len(result.completed) == 2
    assert result.job("job1").started_at > 0
    for record in result.completed:
        extent = record.finished_at - record.started_at
        assert record.result.job_time == extent
        assert record.result.to_report()["times"]["job"] == extent
        assert record.summary()["job_time"] == extent
