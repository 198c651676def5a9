"""Trace-replay bench of the multi-job service layer.

Replays a seeded synthetic arrival trace of mixed WordCount / TeraSort /
KMeans jobs (see :func:`repro.service.synthetic_trace`) through a
:class:`~repro.service.JobServer` on a small shared cluster, once per
cross-job arbiter, and records service-level metrics in *virtual* time:

* job **throughput** (completed jobs per simulated second of makespan);
* job **latency** percentiles (p50/p95/p99, submit -> finish);
* queue/admission peaks and the buffer-slot leak audit.

Everything the simulation produces is deterministic — the trace is
seeded, materialisation is seeded per request, and the simulator breaks
ties on monotonic sequence numbers — so the recorded numbers in
``BENCH_service.json`` replay at 0% drift and ``repro.bench.regress``
gates them exactly like the scaling sweep.  Wall-clock is recorded for
orientation but never gated.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.core import JobConfig
from repro.core.costs import DEFAULT_HOST_COSTS, HostCosts
from repro.core.sched import ARBITER_NAMES
from repro.hw.presets import das4_cluster
from repro.service import JobServer, ServicePolicy, synthetic_trace

from repro.bench.harness import ExperimentReport, Table, point_profile

__all__ = ["report", "service_point", "TRACE_JOBS", "QUICK_JOBS",
           "TRACE_SEED", "MEAN_INTERARRIVAL", "SERVICE_NODES",
           "QUICK_WALL_BUDGET_S"]

#: full trace length (the committed baseline) and the CI smoke length
TRACE_JOBS = 200
QUICK_JOBS = 40
#: seed of the synthetic arrival trace — part of the baseline contract
TRACE_SEED = 7
#: mean Poisson interarrival (virtual seconds); jobs take ~1e-2 s on the
#: bench cluster, so arrivals outpace service and the queue fills
MEAN_INTERARRIVAL = 0.002
#: shared-cluster size; service jobs are small, contention is the point
SERVICE_NODES = 4

#: admission knobs of the bench: the queue is sized to admit the whole
#: trace (the acceptance bar is "completes >= 200 mixed jobs", so the
#: bench must never reject), four dispatch slots share the cluster
_QUEUE_CAPACITY = 512
_MAX_RUNNING = 4
#: chunk size for the tiny service jobs (16-64 KiB inputs)
_CHUNK = 8 * 1024

#: wall-clock budget for the CI smoke (both arbiters at QUICK_JOBS,
#: including trace materialisation).  Recorded locally well under 20 s;
#: generous headroom for slower CI machines.
QUICK_WALL_BUDGET_S = 120.0


def service_point(arbiter: str, n_jobs: int = TRACE_JOBS,
                  seed: int = TRACE_SEED,
                  costs: HostCosts = DEFAULT_HOST_COSTS) -> Dict[str, Any]:
    """Replay the trace under one arbiter; returns its JSON record.

    The scheduler is pinned to ``static-affinity`` (as in the scaling
    sweep) so the committed baseline never depends on the session's
    ``$REPRO_SCHEDULER`` default.
    """
    requests = synthetic_trace(n_jobs, seed=seed,
                               mean_interarrival=MEAN_INTERARRIVAL)
    policy = ServicePolicy(queue_capacity=_QUEUE_CAPACITY,
                           max_running=_MAX_RUNNING, arbiter=arbiter)
    config = JobConfig(chunk_size=_CHUNK, partitions_per_node=1,
                       scheduler="static-affinity")
    server = JobServer(das4_cluster(nodes=SERVICE_NODES), policy=policy,
                       config=config, costs=costs)
    for request in requests:
        server.submit(request)
    wall0 = time.perf_counter()
    result = server.run()
    wall = time.perf_counter() - wall0
    pct = result.latency_percentiles()
    return {
        "arbiter": arbiter,
        "n_jobs": n_jobs,
        "trace_seed": seed,
        "nodes": SERVICE_NODES,
        "max_running": policy.max_running,
        "queue_capacity": policy.queue_capacity,
        "completed": result.counters["completed"],
        "rejected": result.counters["rejected"],
        "cancelled": result.counters["cancelled"],
        "makespan_s": result.makespan,
        "throughput_jobs_per_s": result.throughput,
        "latency_p50_s": pct["p50"],
        "latency_p95_s": pct["p95"],
        "latency_p99_s": pct["p99"],
        "peak_running": result.peak_running,
        "peak_queue_depth": result.peak_queue_depth,
        "leaked_buffer_slots": result.leaked_buffer_slots,
        "causal": point_profile(result.timeline, result.makespan),
        "wall_s": wall,
    }


def report(quick: bool = False,
           json_path: Optional[str] = None) -> ExperimentReport:
    """Run the trace replay per arbiter; emit the JSON to ``json_path``."""
    n_jobs = QUICK_JOBS if quick else TRACE_JOBS
    rep = ExperimentReport(
        experiment=f"Service trace replay — {n_jobs} mixed jobs through "
                   f"admission control on {SERVICE_NODES} shared nodes",
        paper_claim="a multi-job service multiplexes the simulated "
                    "cluster deterministically: queue-based load-leveling "
                    "absorbs the arrival burst and cross-job arbitration "
                    "dispatches onto shared nodes with zero buffer-slot "
                    "leaks")

    points = [service_point(arbiter, n_jobs) for arbiter in ARBITER_NAMES]

    table = Table(f"trace replay ({n_jobs} jobs, {_MAX_RUNNING} slots)",
                  ["arbiter", "completed", "makespan_s", "jobs_per_s",
                   "p50_s", "p95_s", "p99_s", "peak_q", "wall_s"])
    for p in points:
        table.add_row(arbiter=p["arbiter"], completed=p["completed"],
                      makespan_s=p["makespan_s"],
                      jobs_per_s=p["throughput_jobs_per_s"],
                      p50_s=p["latency_p50_s"], p95_s=p["latency_p95_s"],
                      p99_s=p["latency_p99_s"],
                      peak_q=p["peak_queue_depth"], wall_s=p["wall_s"])
    rep.tables.append(table)

    rep.check(f"every arbiter completes all {n_jobs} jobs",
              all(p["completed"] == n_jobs and p["rejected"] == 0
                  for p in points),
              "; ".join(f"{p['arbiter']} {p['completed']}/{p['n_jobs']}"
                        for p in points))
    rep.check("no point leaked buffer slots",
              all(p["leaked_buffer_slots"] == 0 for p in points))
    rep.check("latency percentiles are ordered (p50 <= p95 <= p99 <= "
              "makespan)",
              all(p["latency_p50_s"] <= p["latency_p95_s"]
                  <= p["latency_p99_s"] <= p["makespan_s"]
                  for p in points))
    rep.check(f"every point saturates the {_MAX_RUNNING} dispatch slots",
              all(p["peak_running"] == _MAX_RUNNING for p in points),
              "arrivals outpace service, so the slots must fill")

    rep.write_baseline(
        json_path,
        generated_by="python -m repro.bench service",
        trace_seed=TRACE_SEED,
        mean_interarrival_s=MEAN_INTERARRIVAL,
        nodes=SERVICE_NODES,
        points=points)
    return rep
