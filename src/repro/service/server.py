"""The long-lived job server: submissions → admission → concurrent runs.

Job lifecycle (documented in ``docs/service.md``)::

    submit ──> [rejected]                      queue full / tenant quota
       │
       └────> queued ──> [cancelled]           cancel before dispatch
                 │
                 └─────> running ──> [completed]

Arrivals are simulated processes: each submission knocks at its
``submit_at`` virtual time and the :class:`AdmissionQueue` answers
immediately (bounded queue + per-tenant throttles).  Dispatch is pull
free: whenever a slot frees (dispatch, completion, cancellation) the
server pumps the queue, asking the
:class:`~repro.core.sched.CrossJobArbiter` which admitted job runs
next, and starts it as a :class:`~repro.core.engine.JobExecution` on
the shared :class:`~repro.core.engine.ClusterSession`.  Jobs running
concurrently contend for every hardware resource — CPU fluid shares,
disks, NICs, fabric slots, device engines — while keeping private
storage namespaces, shuffle registries and health/recovery state.

Everything is deterministic: same submissions → same admission
decisions, dispatch order, completion order and per-job outputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.core.api import MapReduceApp
from repro.core.config import JobConfig
from repro.core.costs import DEFAULT_HOST_COSTS, HostCosts
from repro.core.engine import ClusterSession, GlasswingResult, JobExecution
from repro.core.faults import FaultPlan
from repro.core.membership import initial_active, pick_join, pick_leave
from repro.core.sched.crossjob import CrossJobArbiter
from repro.hw.specs import ClusterSpec

from repro.service.admission import AdmissionQueue, ServicePolicy
from repro.service.trace import JobRequest

__all__ = ["JobSubmission", "JobRecord", "JobServer", "ServiceResult"]

#: histogram bounds for virtual job-latency distributions (seconds)
_LATENCY_BOUNDS = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 10.0)


@dataclass
class JobSubmission:
    """A materialised job handed to :meth:`JobServer.submit`.

    The declarative path (:class:`~repro.service.trace.JobRequest`) is a
    thin wrapper that materialises into one of these; programmatic
    callers (tests injecting faults, custom apps) build it directly.
    ``faults`` fire relative to the job's *dispatch* time and use
    executor-crash semantics: a node crash kills this job's pipelines
    and intermediate state on that node, not the node itself.
    """

    name: str
    app: MapReduceApp
    inputs: Dict[str, bytes]
    config: Optional[JobConfig] = None
    tenant: str = "default"
    priority: int = 1
    submit_at: float = 0.0
    faults: Optional[FaultPlan] = None
    cancel_at: Optional[float] = None


@dataclass
class JobRecord:
    """One submission's full service-side history."""

    name: str
    tenant: str
    priority: int
    seq: int                        # arrival sequence (FIFO tie-break)
    app_name: str
    submit_at: float
    demand: int                     # total input bytes (LPT scoring)
    outcome: Optional[str] = None   # completed | rejected | cancelled
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    leaked_buffer_slots: int = 0
    result: Optional[GlasswingResult] = None
    #: the job while it runs; None once the job is terminal
    execution: Optional[JobExecution] = None
    submission: Optional[JobSubmission] = field(default=None, repr=False)

    @property
    def latency(self) -> Optional[float]:
        """Submit-to-finish virtual seconds (completed jobs only)."""
        if self.outcome != "completed":
            return None
        return self.finished_at - self.submit_at

    @property
    def queue_wait(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.submit_at

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly per-job section for the service report."""
        row: Dict[str, Any] = {
            "name": self.name, "app": self.app_name,
            "tenant": self.tenant, "priority": self.priority,
            "submit_at": self.submit_at, "outcome": self.outcome,
            "demand_bytes": self.demand,
        }
        if self.started_at is not None:
            row["started_at"] = self.started_at
            row["queue_wait"] = self.queue_wait
        if self.finished_at is not None:
            row["finished_at"] = self.finished_at
        if self.outcome == "completed":
            row["latency"] = self.latency
            row["leaked_buffer_slots"] = self.leaked_buffer_slots
            row["job_time"] = self.result.job_time
            row["network_bytes"] = self.result.stats["network_bytes"]
            row["scheduler"] = self.result.stats["scheduler"]
        return row


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sorted list."""
    rank = math.ceil(q * len(values))
    return values[min(len(values), max(1, rank)) - 1]


@dataclass
class ServiceResult:
    """Aggregate outcome of one :meth:`JobServer.run`."""

    records: List[JobRecord]
    makespan: float
    policy: ServicePolicy
    peak_running: int
    peak_queue_depth: int
    counters: Dict[str, int]
    timeline: Any
    telemetry: Any = None

    @property
    def completed(self) -> List[JobRecord]:
        return [r for r in self.records if r.outcome == "completed"]

    @property
    def leaked_buffer_slots(self) -> int:
        return sum(r.leaked_buffer_slots for r in self.completed)

    @property
    def throughput(self) -> float:
        """Completed jobs per virtual second of service makespan."""
        if self.makespan <= 0:
            return 0.0
        return len(self.completed) / self.makespan

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 of completed-job latency (virtual seconds)."""
        values = sorted(r.latency for r in self.completed)
        if not values:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {f"p{int(q * 100)}": _percentile(values, q)
                for q in (0.50, 0.95, 0.99)}

    def job(self, name: str) -> JobRecord:
        for record in self.records:
            if record.name == name:
                return record
        raise KeyError(name)

    def to_report(self) -> Dict[str, Any]:
        """Structured service report with per-job sections."""
        percentiles = self.latency_percentiles()
        return {
            "schema": "glasswing-service-report/1",
            "policy": {
                "queue_capacity": self.policy.queue_capacity,
                "max_running": self.policy.max_running,
                "max_per_tenant_running": self.policy.max_per_tenant_running,
                "max_per_tenant_queued": self.policy.max_per_tenant_queued,
                "arbiter": self.policy.arbiter,
            },
            "makespan": self.makespan,
            "throughput_jobs_per_s": self.throughput,
            "latency": percentiles,
            "counters": dict(self.counters),
            "peak_running": self.peak_running,
            "peak_queue_depth": self.peak_queue_depth,
            "leaked_buffer_slots": self.leaked_buffer_slots,
            "jobs": [r.summary() for r in self.records],
        }


class JobServer:
    """Accepts a stream of submissions and runs them on one cluster.

    Usage::

        server = JobServer(das4_cluster(nodes=4), policy=ServicePolicy())
        for request in synthetic_trace(200, seed=7):
            server.submit(request)
        result = server.run()

    ``config`` is the base :class:`JobConfig` every job inherits
    (per-request overrides layer on top via ``JobConfig.with_``).
    """

    def __init__(self, cluster_spec: ClusterSpec,
                 policy: Optional[ServicePolicy] = None,
                 config: Optional[JobConfig] = None,
                 costs: HostCosts = DEFAULT_HOST_COSTS,
                 metrics_interval: Optional[float] = None,
                 active_nodes: Optional[int] = None):
        self.policy = policy or ServicePolicy()
        self.base_config = config or JobConfig()
        self.costs = costs
        self.session = ClusterSession(cluster_spec,
                                      metrics_interval=metrics_interval)
        # The shared active/standby ledger: every tenant sees it, scale
        # events move nodes between the two and reach every running job.
        n_nodes = len(self.session.cluster)
        self.active = initial_active(n_nodes, active_nodes)
        self.standby = [n for n in range(n_nodes) if n not in self.active]
        self.queue = AdmissionQueue(self.policy)
        self.arbiter = CrossJobArbiter(self.policy.arbiter)
        self.records: Dict[str, JobRecord] = {}
        self._seq = itertools.count()
        self._running: Dict[str, JobRecord] = {}
        self._running_by_tenant: Dict[str, int] = {}
        self._terminal = 0
        self._started = False
        self.peak_running = 0
        self._instruments = None
        self._latency_hist = None
        if self.session.telemetry is not None:
            tele = self.session.telemetry
            tele.gauge("glasswing_svc_queue_depth",
                       help="jobs admitted and waiting for a dispatch slot",
                       probe=lambda: self.queue.depth,
                       capacity=float(self.policy.queue_capacity))
            tele.gauge("glasswing_svc_running_jobs",
                       help="jobs currently executing on the shared cluster",
                       probe=lambda: len(self._running),
                       capacity=float(self.policy.max_running))
            self._instruments = {
                key: tele.counter(
                    f"glasswing_svc_{key}_total",
                    help=f"service lifecycle counter: jobs {key}")
                for key in ("submitted", "admitted", "rejected",
                            "cancelled", "dispatched", "completed")
            }
            self._latency_hist = tele.histogram(
                "glasswing_svc_job_latency_seconds",
                help="submit-to-finish virtual latency of completed jobs",
                bounds=_LATENCY_BOUNDS)

    # -- submission --------------------------------------------------------
    def submit(self, job: Union[JobSubmission, JobRequest]) -> JobRecord:
        """Register a job; its arrival fires at ``submit_at`` virtual
        time once :meth:`run` starts the clock."""
        if self._started:
            raise RuntimeError("the server is already running; submissions "
                               "must be registered before run()")
        if isinstance(job, JobRequest):
            app, inputs, overrides = job.materialize()
            job = JobSubmission(
                name=job.name, app=app, inputs=inputs,
                config=(self.base_config.with_(**overrides) if overrides
                        else None),
                tenant=job.tenant, priority=job.priority,
                submit_at=job.submit_at, cancel_at=job.cancel_at)
        if job.name in self.records:
            raise ValueError(f"duplicate job name {job.name!r}")
        # Rejected here, before the clock starts: at dispatch the same
        # error would take every other tenant's run down with it.
        try:
            initial_active(len(self.session.cluster),
                           (job.config or self.base_config).active_nodes,
                           job.faults)
        except ValueError as exc:
            raise ValueError(f"job {job.name!r}: {exc}") from None
        record = JobRecord(
            name=job.name, tenant=job.tenant, priority=job.priority,
            seq=next(self._seq), app_name=job.app.name,
            submit_at=job.submit_at,
            demand=sum(len(v) for v in job.inputs.values()),
            submission=job)
        self.records[job.name] = record
        sim = self.session.sim
        sim.process(self._arrival(record), name=f"svc.arrive.{record.name}")
        if job.cancel_at is not None:
            sim.process(self._cancel_watch(record, job.cancel_at),
                        name=f"svc.cancel.{record.name}")
        return record

    # -- elastic membership ------------------------------------------------
    def scale_out(self, at: float, node: Optional[int] = None) -> None:
        """Schedule a scale-out at ``at`` virtual seconds (``None``
        activates the lowest-id standby).  Every job running at that
        moment sees the node join; later dispatches snapshot the grown
        :attr:`active` list."""
        self._schedule_scale("out", at, node)

    def scale_in(self, at: float, node: Optional[int] = None) -> None:
        """Schedule a scale-in at ``at`` (``None`` drains the
        highest-id active node; the last node never drains).  Running
        jobs drain the node through their recovery path — only
        re-homeable work moves, finished bytes stay attributed."""
        self._schedule_scale("in", at, node)

    def _schedule_scale(self, direction: str, at: float,
                        node: Optional[int]) -> None:
        if self._started:
            raise RuntimeError("the server is already running; scale "
                               "events must be registered before run()")
        if at < 0:
            raise ValueError("scale time must be non-negative")
        self.session.sim.process(
            self._scale(direction, at, node),
            name=f"svc.scale-{direction}@{at}")

    def _scale(self, direction: str, at: float, node: Optional[int]):
        sim = self.session.sim
        if at > 0:
            yield sim.timeout(at)
        if direction == "out":
            picked = pick_join(self.standby, node)
            gains, loses = self.active, self.standby
        else:
            picked = pick_leave(self.active, node)
            gains, loses = self.standby, self.active
        if picked is None:
            return
        loses.remove(picked)
        gains.append(picked)
        gains.sort()
        self.session.timeline.record(
            "svc.scale", f"node{picked}", sim.now, sim.now,
            direction=direction, node=picked,
            active=len(self.active))
        for record in sorted(self._running.values(), key=lambda r: r.seq):
            if direction == "out":
                record.execution.inject_join(picked)
            else:
                record.execution.inject_leave(picked)

    # -- simulated lifecycle ----------------------------------------------
    def _count(self, key: str) -> None:
        if self._instruments is not None:
            self._instruments[key].inc()

    def _arrival(self, record: JobRecord):
        sim = self.session.sim
        if record.submit_at > 0:
            yield sim.timeout(record.submit_at)
        self._count("submitted")
        if self.queue.offer(record):
            self._count("admitted")
            self.session.timeline.record(
                "svc.submit", record.name, sim.now, sim.now,
                tenant=record.tenant, priority=record.priority,
                admitted=True)
            self._pump()
        else:
            record.outcome = "rejected"
            record.finished_at = sim.now
            record.submission = None
            self._count("rejected")
            self.session.timeline.record(
                "svc.reject", record.name, sim.now, sim.now,
                tenant=record.tenant, priority=record.priority,
                queue_depth=self.queue.depth)
            self._job_terminal()

    def _cancel_watch(self, record: JobRecord, cancel_at: float):
        # ``cancel_at`` is captured at submit time: dispatch drops the
        # submission reference, but a late watcher must still be a no-op
        # rather than an attribute error.
        sim = self.session.sim
        if cancel_at > 0:
            yield sim.timeout(cancel_at)
        if self.queue.cancel(record.name):
            record.outcome = "cancelled"
            record.finished_at = sim.now
            record.submission = None
            self._count("cancelled")
            self.session.timeline.record(
                "svc.cancel", record.name, sim.now, sim.now,
                tenant=record.tenant)
            self._job_terminal()
            # A freed queue slot cannot unblock a *dispatch* (slots gate
            # dispatch, the queue gates admission), so no pump here.

    def _pump(self) -> None:
        """Fill free dispatch slots from the queue via the arbiter."""
        while len(self._running) < self.policy.max_running:
            candidates = self.queue.candidates(self._running_by_tenant)
            pick = self.arbiter.pick(candidates, self._running_by_tenant)
            if pick is None:
                return
            self._dispatch(self.queue.take(pick.name))

    def _dispatch(self, record: JobRecord) -> None:
        sim = self.session.sim
        submission = record.submission
        record.started_at = sim.now
        self.session.timeline.record(
            "svc.queue", record.name, record.submit_at, sim.now,
            tenant=record.tenant, priority=record.priority)
        # The span *is* the wait: queued time is pure admission blocking,
        # so the matching edge covers the whole span (self-time zero).
        self.session.timeline.record_wait(
            "admission", "svc.queue", "svc.queue", record.name,
            record.submit_at, sim.now, tenant=record.tenant)
        # A standby pins the job to a snapshot of the active subset;
        # with none, per-job ``config.active_nodes`` still applies.
        active = list(self.active) if self.standby else None
        record.execution = JobExecution(
            self.session, submission.app, submission.inputs,
            config=submission.config or self.base_config,
            costs=self.costs, faults=submission.faults,
            name=record.name,
            timeline=self.session.timeline.fork(record.name),
            active=active)
        record.submission = None        # inputs now live in the backend
        record.execution.start()
        self._running[record.name] = record
        self._running_by_tenant[record.tenant] = \
            self._running_by_tenant.get(record.tenant, 0) + 1
        self.peak_running = max(self.peak_running, len(self._running))
        self._count("dispatched")
        sim.process(self._watch(record), name=f"svc.watch.{record.name}")

    def _watch(self, record: JobRecord):
        sim = self.session.sim
        yield record.execution.proc
        record.finished_at = sim.now
        record.outcome = "completed"
        record.result = record.execution.result()
        record.execution.close()
        record.execution = None
        record.leaked_buffer_slots = record.result.stats["leaked_buffer_slots"]
        self.session.timeline.record(
            "svc.job", record.name, record.started_at, sim.now,
            tenant=record.tenant, priority=record.priority,
            app=record.app_name, leaked=record.leaked_buffer_slots)
        del self._running[record.name]
        left = self._running_by_tenant[record.tenant] - 1
        if left > 0:
            self._running_by_tenant[record.tenant] = left
        else:
            del self._running_by_tenant[record.tenant]
        self._count("completed")
        if self._latency_hist is not None:
            self._latency_hist.observe(record.latency)
        self._job_terminal()
        self._pump()

    def _job_terminal(self) -> None:
        self._terminal += 1
        if (self._terminal == len(self.records)
                and self.session.telemetry is not None):
            self.session.telemetry.stop()

    # -- drive -------------------------------------------------------------
    def run(self) -> ServiceResult:
        """Run the clock until every submission reached a terminal state."""
        if not self.records:
            raise ValueError("no submissions registered")
        self._started = True
        self.session.run()
        stuck = [r.name for r in self.records.values() if r.outcome is None]
        if stuck:
            raise RuntimeError(
                f"the service deadlocked: the event queue drained with "
                f"{len(stuck)} job(s) unfinished ({', '.join(stuck[:5])}"
                f"{', ...' if len(stuck) > 5 else ''})")
        records = list(self.records.values())
        makespan = max(r.finished_at for r in records)
        counters = {
            "submitted": self.queue.offered,
            "admitted": self.queue.admitted,
            "rejected": self.queue.rejected,
            "cancelled": self.queue.cancelled,
            "completed": sum(1 for r in records if r.outcome == "completed"),
        }
        return ServiceResult(
            records=records, makespan=makespan, policy=self.policy,
            peak_running=self.peak_running,
            peak_queue_depth=self.queue.peak_depth,
            counters=counters, timeline=self.session.timeline,
            telemetry=self.session.telemetry)
