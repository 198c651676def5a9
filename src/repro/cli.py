"""Command-line job runner: ``python -m repro <app> [options]``.

Runs one of the five paper applications on a simulated cluster with
generated input, printing the job summary and the per-stage breakdown —
the quickest way to poke at the framework without writing code::

    python -m repro wordcount --nodes 4 --megabytes 8
    python -m repro kmeans --nodes 2 --device gpu --centers 512
    python -m repro terasort --nodes 8 --records 100000

Fault tolerance (§III-E) is driven from the same entry point::

    python -m repro wordcount --node-crash 1@0.5 --fail-map 0 --fail-map 3
    python -m repro terasort --fault-seed 7 --map-rate 0.3 --speculate

Observability (traces and reports)::

    python -m repro wordcount --nodes 4 --trace-out trace.json   # Perfetto
    python -m repro terasort --report-json report.json --explain
    python -m repro wordcount --metrics-interval 0.01 --metrics-out m.om
    python -m repro explain-diff base-report.json new-report.json

Iterative / multi-round execution (:mod:`repro.dag`)::

    python -m repro kmeans --iterations 8 --tolerance 1e-3
    python -m repro dag pagerank --vertices 2000 --rounds 5
    python -m repro dag prefixsum --values 100000 --block 4096

The multi-job service (:mod:`repro.service`) has its own entry point::

    python -m repro serve --jobs 60 --max-running 4
    python -m repro serve --arrival-trace trace.json --arbiter lpt
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, Optional, Tuple

from repro.apps import (KMeansApp, MatMulApp, PageViewApp, TeraSortApp,
                        WordCountApp)
from repro.apps import datagen
from repro.core import JobConfig, run_glasswing
from repro.core.api import MapReduceApp
from repro.core.faults import FaultPlan, NodeCrash
from repro.core.sched import ARBITER_NAMES, SCHEDULER_NAMES
from repro.hw.presets import GBE, QDR_IB, das4_cluster
from repro.hw.specs import DeviceKind, MiB
from repro.storage.records import NO_COMPRESSION

__all__ = ["main", "serve_main", "dag_main", "explain_diff_main"]

APPS = ("wordcount", "pageview", "terasort", "kmeans", "matmul")


def _cluster_flags(chunk_kb: int) -> argparse.ArgumentParser:
    """Parent parser: the simulated cluster every sub-command runs on."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--nodes", type=int, default=4)
    parent.add_argument("--network", choices=["ib", "gbe"], default="ib")
    parent.add_argument("--storage", choices=["dfs", "local"], default="dfs")
    parent.add_argument("--scheduler", choices=list(SCHEDULER_NAMES),
                        default=None,
                        help="placement policy (default: static-affinity, "
                             "or $REPRO_SCHEDULER)")
    parent.add_argument("--chunk-kb", type=int, default=chunk_kb,
                        help="chunk size in KiB (default: %(default)s)")
    return parent


def _artifact_flags(metrics: bool) -> argparse.ArgumentParser:
    """Parent parser: the files a run can leave behind."""
    parent = argparse.ArgumentParser(add_help=False)
    obs = parent.add_argument_group("observability")
    obs.add_argument("--trace-out", metavar="FILE.json", default=None,
                     help="write a Chrome trace-event file (load in "
                          "chrome://tracing or https://ui.perfetto.dev)")
    obs.add_argument("--report-json", metavar="FILE", default=None,
                     help="write the structured run report as JSON")
    if metrics:
        obs.add_argument("--metrics-interval", type=float, default=None,
                         metavar="SECONDS",
                         help="sample queue depths / occupancy / in-flight "
                              "bytes every SECONDS of simulated time")
        obs.add_argument("--metrics-out", metavar="FILE", default=None,
                         help="write sampled metrics (.om/.prom/.txt/"
                              ".openmetrics selects OpenMetrics text, "
                              "anything else JSONL); requires "
                              "--metrics-interval")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run a Glasswing MapReduce job on a simulated cluster.",
        parents=[_cluster_flags(chunk_kb=256), _artifact_flags(metrics=True)])
    parser.add_argument("app", choices=APPS)
    parser.add_argument("--device", choices=["cpu", "gpu"], default="cpu")
    parser.add_argument("--devices", metavar="POOL", default=None,
                        help="heterogeneous per-node device pool, e.g. "
                             "'cpu+gpu': every listed device runs its own "
                             "scheduler-fed pipeline concurrently "
                             "(overrides --device)")
    parser.add_argument("--megabytes", type=float, default=8.0,
                        help="input size for the text apps")
    parser.add_argument("--records", type=int, default=80_000,
                        help="record count for terasort")
    parser.add_argument("--points", type=int, default=100_000,
                        help="observations for kmeans")
    parser.add_argument("--centers", type=int, default=256,
                        help="centers for kmeans")
    parser.add_argument("--iterations", type=int, default=1,
                        help="Lloyd iterations for kmeans: 1 (default) "
                             "runs the paper's single-iteration job; more "
                             "runs the iterative driver on the DAG engine "
                             "with the point file cached across rounds")
    parser.add_argument("--tolerance", type=float, default=1e-3,
                        help="kmeans convergence threshold on the max "
                             "center shift (used with --iterations > 1)")
    parser.add_argument("--matrix", type=int, default=1024,
                        help="matrix size for matmul (tile = matrix/4)")
    parser.add_argument("--batch-size", type=int, default=None,
                        metavar="RECORDS",
                        help="records per simulated pipeline payload; "
                             "1 = per-record ground-truth simulation "
                             "(default: autotuned, one batch per split)")
    parser.add_argument("--buffering", type=int, default=2,
                        choices=[1, 2, 3])
    parser.add_argument("--seed", type=int, default=42)
    faults = parser.add_argument_group("fault injection (§III-E)")
    faults.add_argument("--fail-map", type=int, action="append", default=[],
                        metavar="SPLIT",
                        help="crash this map split's first attempt "
                             "(repeatable; repeat a split to crash retries)")
    faults.add_argument("--fail-reduce", type=int, action="append",
                        default=[], metavar="PID",
                        help="crash this partition's first reduce attempt "
                             "(repeatable)")
    faults.add_argument("--node-crash", action="append", default=[],
                        metavar="NODE@TIME",
                        help="kill a node at a virtual time, e.g. 1@0.25 "
                             "(repeatable)")
    faults.add_argument("--straggle", action="append", default=[],
                        metavar="SPLIT@FACTOR",
                        help="slow a map split's kernel, e.g. 3@6 "
                             "(repeatable)")
    faults.add_argument("--fault-seed", type=int, default=None,
                        help="derive a random fault schedule from this seed")
    faults.add_argument("--map-rate", type=float, default=0.2,
                        help="per-split failure probability for --fault-seed")
    faults.add_argument("--reduce-rate", type=float, default=0.1,
                        help="per-partition failure probability for "
                             "--fault-seed")
    faults.add_argument("--straggler-rate", type=float, default=0.1,
                        help="per-split straggler probability for "
                             "--fault-seed")
    faults.add_argument("--speculate", action="store_true",
                        help="enable speculative re-execution of stragglers")
    elastic = parser.add_argument_group(
        "elastic membership (docs/elasticity.md)")
    elastic.add_argument("--active-nodes", type=int, default=None,
                         metavar="N",
                         help="start with only the first N nodes active; "
                              "the rest stand by for --join / --elastic")
    elastic.add_argument("--join", action="append", default=[],
                         metavar="NODE@TIME",
                         help="activate a standby at a virtual time, e.g. "
                              "5@0.25 or auto@0.25 for the lowest-id "
                              "standby (repeatable)")
    elastic.add_argument("--leave", action="append", default=[],
                         metavar="NODE@TIME",
                         help="drain an active node at a virtual time "
                              "(auto@T drains the highest-id one); its "
                              "work re-homes through recovery "
                              "(repeatable)")
    elastic.add_argument("--elastic", metavar="MIN:MAX", default=None,
                         help="auto-scale between MIN and MAX active "
                              "nodes from CPU saturation watermarks")
    elastic.add_argument("--coord-replicas", type=int, default=None,
                         metavar="N",
                         help="replicate the coordinator N ways (leader + "
                              "standbys; default 1)")
    elastic.add_argument("--coord-crash", action="append", default=[],
                         type=float, metavar="TIME",
                         help="kill the coordinator leader at a virtual "
                              "time; a standby takes over after "
                              "--failover-timeout (repeatable)")
    elastic.add_argument("--failover-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="leader-election delay charged per "
                              "coordinator failover (default 0.05)")
    parser.add_argument("--explain", action="store_true",
                        help="print per-phase dominant-stage / "
                             "critical-path analysis")
    return parser


def _parse_at(spec: str, flag: str) -> Tuple[int, float]:
    try:
        left, right = spec.split("@", 1)
        return int(left), float(right)
    except ValueError:
        raise SystemExit(f"{flag} expects ID@VALUE, got {spec!r}")


def _parse_member_at(spec: str, flag: str) -> Tuple[Optional[int], float]:
    """``NODE@TIME`` where NODE may be ``auto`` (resolved at fire time)."""
    try:
        left, right = spec.split("@", 1)
        node = None if left.strip().lower() == "auto" else int(left)
        return node, float(right)
    except ValueError:
        raise SystemExit(f"{flag} expects NODE@TIME (NODE may be 'auto'), "
                         f"got {spec!r}")


#: the flags that each schedule one explicit fault
_EXPLICIT_FAULT_FLAGS = ("--fail-map", "--fail-reduce", "--node-crash",
                         "--straggle", "--join", "--leave", "--coord-crash")


def make_faults(args, n_splits_hint: int = 64) -> Optional[FaultPlan]:
    """Build the :class:`FaultPlan` the CLI flags describe (or ``None``)."""
    from repro.core.faults import CoordinatorCrash, NodeJoin, NodeLeave
    if args.fault_seed is not None:
        explicit = [flag for flag in _EXPLICIT_FAULT_FLAGS
                    if getattr(args, flag[2:].replace("-", "_"), None)]
        if explicit:
            raise SystemExit(
                "--fault-seed draws the whole fault schedule and cannot be "
                f"combined with {', '.join(explicit)}")
        return FaultPlan.seeded(
            args.fault_seed, n_splits=n_splits_hint, n_nodes=args.nodes,
            n_partitions=args.nodes * JobConfig().partitions_per_node,
            map_rate=args.map_rate, reduce_rate=args.reduce_rate,
            straggler_rate=args.straggler_rate)
    map_failures: Dict[int, int] = {}
    for split in args.fail_map:
        map_failures[split] = map_failures.get(split, 0) + 1
    reduce_failures: Dict[int, int] = {}
    for pid in args.fail_reduce:
        reduce_failures[pid] = reduce_failures.get(pid, 0) + 1
    crashes = tuple(NodeCrash(node, at)
                    for node, at in (_parse_at(s, "--node-crash")
                                     for s in args.node_crash))
    stragglers = dict(_parse_at(s, "--straggle") for s in args.straggle)
    joins = tuple(NodeJoin(node, at)
                  for node, at in (_parse_member_at(s, "--join")
                                   for s in getattr(args, "join", [])))
    leaves = tuple(NodeLeave(node, at)
                   for node, at in (_parse_member_at(s, "--leave")
                                    for s in getattr(args, "leave", [])))
    coord_crashes = tuple(CoordinatorCrash(at)
                          for at in getattr(args, "coord_crash", []))
    if not (map_failures or reduce_failures or crashes or stragglers
            or joins or leaves or coord_crashes):
        return None
    return FaultPlan(map_failures=map_failures,
                     reduce_failures=reduce_failures,
                     node_joins=joins, node_leaves=leaves,
                     coordinator_crashes=coord_crashes,
                     node_crashes=crashes,
                     stragglers={s: float(f) for s, f in stragglers.items()})


def _parse_elastic(spec: str, nodes: int):
    """``MIN:MAX`` -> :class:`~repro.core.membership.ElasticPolicy`."""
    from repro.core.membership import ElasticPolicy
    try:
        lo, hi = spec.split(":", 1)
        return ElasticPolicy(min_nodes=int(lo),
                             max_nodes=min(int(hi), nodes))
    except ValueError as exc:
        raise SystemExit(f"--elastic expects MIN:MAX, got {spec!r} ({exc})")


def _parse_device_pool(spec: str) -> Tuple[DeviceKind, ...]:
    """``"cpu+gpu"`` -> ``(DeviceKind.CPU, DeviceKind.GPU)``."""
    kinds = []
    for part in spec.split("+"):
        try:
            kinds.append(DeviceKind(part.strip().lower()))
        except ValueError:
            raise SystemExit(
                f"--devices expects kinds joined by '+', e.g. cpu+gpu; "
                f"got {spec!r}")
    return tuple(kinds)


def _cluster(args, gpu: bool = False):
    """The simulated cluster the ``_cluster_flags`` describe."""
    return das4_cluster(nodes=args.nodes, gpu=gpu,
                        network=QDR_IB if args.network == "ib" else GBE)


def _config(args, **kw: Any) -> JobConfig:
    """A :class:`JobConfig` from the ``_cluster_flags`` plus ``kw``; a flag
    left unset (``None``) leaves the config's own default in force."""
    kw["scheduler"] = args.scheduler
    return JobConfig(chunk_size=args.chunk_kb * 1024, storage=args.storage,
                     **{k: v for k, v in kw.items() if v is not None})


def _check_artifact_flags(args) -> None:
    if args.metrics_out and args.metrics_interval is None:
        raise SystemExit("--metrics-out requires --metrics-interval")
    if args.metrics_interval is not None:
        from repro.obs.telemetry import valid_interval
        try:
            valid_interval(args.metrics_interval)
        except ValueError as exc:
            raise SystemExit(f"--metrics-interval: {exc}")


def _write_artifacts(args, *, timeline, telemetry=None,
                     report: Callable[[], Any]) -> None:
    """Write the files the ``_artifact_flags`` asked for, and only those.

    ``report`` builds the ``--report-json`` payload on demand, so a run
    that did not ask for a report does not pay for one.
    """
    from repro.obs import write_chrome_trace, write_json, write_metrics
    if args.trace_out:
        print(f"  trace written to "
              f"{write_chrome_trace(timeline, args.trace_out)}")
    if getattr(args, "metrics_out", None):
        print(f"  metrics written to "
              f"{write_metrics(telemetry, args.metrics_out)}")
    if args.report_json:
        print(f"  report written to "
              f"{write_json(args.report_json, report())}")


def make_job(args) -> Tuple[MapReduceApp, Dict[str, bytes], JobConfig]:
    """Build (app, inputs, config) from parsed CLI arguments."""
    nbytes = int(args.megabytes * MiB)
    config = _config(
        args,
        device=DeviceKind(args.device),
        devices=(None if args.devices is None
                 else _parse_device_pool(args.devices)),
        buffering=args.buffering,
        batch_size=args.batch_size,
        metrics_interval=args.metrics_interval,
        active_nodes=args.active_nodes,
        coordinator_replicas=args.coord_replicas,
        failover_timeout=args.failover_timeout)
    if args.app == "wordcount":
        return (WordCountApp(),
                {"corpus": datagen.wiki_text(nbytes, seed=args.seed)},
                config)
    if args.app == "pageview":
        return (PageViewApp(),
                {"logs": datagen.web_logs(nbytes, seed=args.seed)},
                config)
    if args.app == "terasort":
        data = datagen.teragen(args.records, seed=args.seed)
        return (TeraSortApp.from_input(data),
                {"teragen": data},
                config.with_(output_replication=1,
                             compression=NO_COMPRESSION))
    if args.app == "kmeans":
        return (KMeansApp(datagen.kmeans_centers(args.centers, 4,
                                                 seed=args.seed)),
                {"points": datagen.kmeans_points(args.points, 4,
                                                 seed=args.seed)},
                config)
    if args.app == "matmul":
        tile = max(16, args.matrix // 4)
        blob, _a, _b = datagen.matmul_tasks(args.matrix, tile,
                                            seed=args.seed)
        app = MatMulApp(tile)
        return app, {"tasks": blob}, config.with_(
            chunk_size=app.record_format.record_size)
    raise SystemExit(f"unknown app {args.app!r}")


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the multi-job service: a stream of job "
                    "submissions through admission control onto one "
                    "shared simulated cluster.",
        # small jobs, small chunks
        parents=[_cluster_flags(chunk_kb=8), _artifact_flags(metrics=True)])
    trace = parser.add_argument_group("arrival trace")
    trace.add_argument("--arrival-trace", metavar="FILE.json", default=None,
                       help="replay this JSON trace (see "
                            "repro.service.trace.dump_trace); default: a "
                            "synthetic mixed wordcount/terasort/kmeans "
                            "trace")
    trace.add_argument("--jobs", type=int, default=60,
                       help="synthetic trace length (ignored with "
                            "--arrival-trace)")
    trace.add_argument("--trace-seed", type=int, default=7,
                       help="seed for the synthetic trace")
    trace.add_argument("--mean-interarrival", type=float, default=0.002,
                       metavar="SECONDS",
                       help="mean virtual interarrival of the synthetic "
                            "trace")
    adm = parser.add_argument_group("admission control")
    adm.add_argument("--queue-capacity", type=int, default=32,
                     help="bounded admission queue: waiting jobs beyond "
                          "this are rejected")
    adm.add_argument("--max-running", type=int, default=4,
                     help="dispatch slots: jobs running concurrently")
    adm.add_argument("--tenant-running", type=int, default=None,
                     metavar="N",
                     help="per-tenant cap on concurrently running jobs")
    adm.add_argument("--tenant-queued", type=int, default=None, metavar="N",
                     help="per-tenant cap on queued jobs")
    adm.add_argument("--arbiter", choices=list(ARBITER_NAMES),
                     default="fair-share",
                     help="cross-job dispatch policy")
    pool = parser.add_argument_group("elastic pool (docs/elasticity.md)")
    pool.add_argument("--active-nodes", type=int, default=None, metavar="N",
                      help="start the shared pool with only the first N "
                           "nodes active")
    pool.add_argument("--scale-out", action="append", default=[],
                      metavar="[NODE@]TIME",
                      help="grow the pool at a virtual time (every running "
                           "job sees the join; repeatable)")
    pool.add_argument("--scale-in", action="append", default=[],
                      metavar="[NODE@]TIME",
                      help="drain a pool node at a virtual time "
                           "(repeatable)")
    return parser


def serve_main(argv=None) -> int:
    """Entry point of ``python -m repro serve``."""
    from repro.service import (JobServer, ServicePolicy, load_trace,
                               synthetic_trace)
    args = build_serve_parser().parse_args(argv)
    _check_artifact_flags(args)
    if args.arrival_trace:
        requests = load_trace(args.arrival_trace)
    else:
        requests = synthetic_trace(args.jobs, seed=args.trace_seed,
                                   mean_interarrival=args.mean_interarrival)
    policy = ServicePolicy(queue_capacity=args.queue_capacity,
                           max_running=args.max_running,
                           max_per_tenant_running=args.tenant_running,
                           max_per_tenant_queued=args.tenant_queued,
                           arbiter=args.arbiter)
    try:
        server = JobServer(_cluster(args), policy=policy,
                           config=_config(args, partitions_per_node=1),
                           metrics_interval=args.metrics_interval,
                           active_nodes=args.active_nodes)
    except ValueError as exc:    # e.g. --active-nodes outside the cluster
        raise SystemExit(f"invalid pool: {exc}")

    def _scale_spec(spec, flag):
        if "@" in spec:
            return _parse_at(spec, flag)
        try:
            return None, float(spec)
        except ValueError:
            raise SystemExit(f"{flag} expects TIME or NODE@TIME, "
                             f"got {spec!r}")

    for spec in args.scale_out:
        node, at = _scale_spec(spec, "--scale-out")
        server.scale_out(at, node)
    for spec in args.scale_in:
        node, at = _scale_spec(spec, "--scale-in")
        server.scale_in(at, node)
    for request in requests:
        server.submit(request)
    try:
        result = server.run()
    except RuntimeError as exc:
        raise SystemExit(f"service run failed: {exc}")
    pct = result.latency_percentiles()
    print(f"service: {len(requests)} submission(s) on {args.nodes} node(s), "
          f"{policy.max_running} slot(s), queue {policy.queue_capacity}, "
          f"{policy.arbiter} arbiter")
    for key, value in result.counters.items():
        print(f"  {key:<12} {value}")
    print(f"  makespan     {result.makespan:10.4f} s")
    print(f"  throughput   {result.throughput:10.2f} jobs/s")
    print(f"  latency p50  {pct['p50']:10.4f} s")
    print(f"  latency p95  {pct['p95']:10.4f} s")
    print(f"  latency p99  {pct['p99']:10.4f} s")
    print(f"  peak running {result.peak_running}, "
          f"peak queue {result.peak_queue_depth}")
    print(f"  leaked buffer slots {result.leaked_buffer_slots}")
    _write_artifacts(args, timeline=result.timeline,
                     telemetry=result.telemetry, report=result.to_report)
    return 0


def _kmeans_iterative_main(args, app, inputs, config, cluster) -> int:
    """``repro kmeans --iterations N`` (N > 1): the DAG-backed driver."""
    from repro.apps.drivers import kmeans_iterate
    run = kmeans_iterate(inputs, app.centers, cluster, config,
                         max_iterations=args.iterations,
                         tolerance=args.tolerance, engine="dag")
    print(f"kmeans-iterative on {args.nodes} node(s), "
          f"{args.device.upper()} kernels, {args.storage} storage: "
          f"{run.iterations} iteration(s), "
          f"{'converged' if run.converged else 'budget exhausted'} "
          f"(tolerance {run.tolerance:g})")
    for i, (result, shift) in enumerate(zip(run.results, run.shifts), 1):
        orphans = run.orphaned[i - 1]
        extra = f", orphaned centers {orphans}" if orphans else ""
        print(f"  round {i:<3} {result.job_time:10.4f} s   "
              f"shift {shift:12.6g}{extra}")
    _finish_dag(args, run.runner, {
        "schema": "glasswing-dag-report/1",
        "dag": "kmeans",
        "iterations": run.iterations,
        "converged": run.converged,
        "tolerance": run.tolerance,
        "shifts": run.shifts,
        "orphaned": run.orphaned,
    })
    return 0


def _finish_dag(args, runner, report: Dict[str, Any]) -> None:
    """What every multi-round run ends with: total time, cache traffic
    and the artefacts (``report`` plus the per-round sections)."""
    print(f"  total time   {runner.total_time:10.4f} s")
    cache = runner.cache_stats()
    print(f"  input cache  {cache['hit_bytes']} B from cache, "
          f"{cache['miss_bytes']} B from storage "
          f"({100.0 * cache['hit_rate_bytes']:.1f}% hit rate)")
    runner.close()      # final telemetry snapshot, as a single job takes
    _write_artifacts(
        args, timeline=runner.session.timeline,
        telemetry=runner.session.telemetry,
        report=lambda: {
            **report,
            "rounds": [sr.section() for sr in runner.stage_runs],
            "total_time": runner.total_time,
            "cache": cache,
        })


DAG_APPS = ("pagerank", "prefixsum")


def build_dag_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro dag",
        description="Run a multi-round DAG application: chained "
                    "MapReduce stages on one shared session with "
                    "immutable inputs cached across rounds.",
        parents=[_cluster_flags(chunk_kb=64), _artifact_flags(metrics=False)])
    parser.add_argument("app", choices=DAG_APPS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--rounds", type=int, default=5,
                        help="power-iteration rounds for pagerank")
    parser.add_argument("--vertices", type=int, default=2_000,
                        help="graph vertices for pagerank")
    parser.add_argument("--edges", type=int, default=16_000,
                        help="graph edges for pagerank")
    parser.add_argument("--damping", type=float, default=0.85,
                        help="damping factor for pagerank")
    parser.add_argument("--values", type=int, default=100_000,
                        help="record count for prefixsum")
    parser.add_argument("--block", type=int, default=4_096,
                        help="scan block size for prefixsum")
    return parser


def dag_main(argv=None) -> int:
    """Entry point of ``python -m repro dag``."""
    args = build_dag_parser().parse_args(argv)
    if args.rounds < 1:
        raise SystemExit("--rounds must be >= 1")
    config, cluster = _config(args), _cluster(args)
    if args.app == "pagerank":
        from repro.apps.pagerank import pagerank_iterate
        edges = datagen.pagerank_edges(args.vertices, args.edges,
                                       seed=args.seed)
        run = pagerank_iterate(edges, args.vertices, cluster, config=config,
                               rounds=args.rounds, damping=args.damping)
        print(f"pagerank on {args.nodes} node(s), {args.storage} storage: "
              f"{args.vertices} vertices, {args.edges} edges, "
              f"{run.rounds} round(s) + 1 degree round")
        top = sorted(enumerate(run.ranks), key=lambda kv: -kv[1])[:5]
        for vertex, rank in top:
            print(f"  rank[{vertex}] = {rank:.6f}")
        print("  per-round delta: "
              + ", ".join(f"{d:.3g}" for d in run.deltas))
        last_report = run.dag_results[-1].to_report()
    else:
        from repro.apps.prefixsum import prefix_sums
        values = datagen.prefix_values(args.values, seed=args.seed)
        run = prefix_sums(values, cluster, config=config,
                          block_size=args.block)
        print(f"prefixsum on {args.nodes} node(s), {args.storage} storage: "
              f"{args.values} records, block {args.block} "
              f"({len(run.block_sums)} blocks)")
        print(f"  final prefix total {int(run.prefix[-1])}")
        last_report = run.dag_result.to_report()
    for sr in run.runner.stage_runs:
        print(f"  {sr.label:<16} {sr.elapsed:10.4f} s   "
              f"cache {sr.cache_hit_bytes}/"
              f"{sr.cache_hit_bytes + sr.cache_miss_bytes} B")
    _finish_dag(args, run.runner, last_report)
    return 0


def build_explain_diff_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro explain-diff",
        description="Attribute the elapsed delta between two runs to "
                    "ranked (stage, wait-class, resource) causes. BASE "
                    "and NEW are causal-profile JSON files or any report "
                    "carrying a 'causal' section (--report-json output, "
                    "a BENCH_scaling.json sweep point).")
    parser.add_argument("base", metavar="BASE",
                        help="baseline profile / report JSON")
    parser.add_argument("new", metavar="NEW",
                        help="comparison profile / report JSON")
    parser.add_argument("--top", type=int, default=8, metavar="K",
                        help="causes to rank (default: %(default)s)")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="also write the glasswing-causal-diff/1 "
                             "document as JSON")
    return parser


def explain_diff_main(argv=None) -> int:
    """Entry point of ``python -m repro explain-diff``."""
    from repro.obs import explain_diff, render_diff, write_json
    args = build_explain_diff_parser().parse_args(argv)
    if args.top < 1:
        raise SystemExit("--top must be >= 1")
    try:
        diff = explain_diff(args.base, args.new, top_k=args.top)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"explain-diff: {exc}")
    print(render_diff(diff))
    if args.json:
        print(f"diff written to {write_json(args.json, diff)}")
    return 0


#: first argument -> the sub-command that takes the rest
_SUBCOMMANDS = {"serve": serve_main, "dag": dag_main,
                "explain-diff": explain_diff_main}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    args = build_parser().parse_args(argv)
    _check_artifact_flags(args)
    if args.iterations < 1:
        raise SystemExit("--iterations must be >= 1")
    app, inputs, config = make_job(args)
    n_splits = max(1, -(-sum(len(v) for v in inputs.values())
                        // config.chunk_size))
    try:
        faults = make_faults(args, n_splits_hint=n_splits)
    except ValueError as exc:    # e.g. straggler factor < 1
        raise SystemExit(f"invalid fault schedule: {exc}")
    cluster = _cluster(args, gpu=DeviceKind.GPU in (config.device,
                                                    *(config.devices or ())))
    if args.app == "kmeans" and args.iterations > 1:
        if faults is not None:
            raise SystemExit(
                "fault injection flags apply to the single-iteration job; "
                "drop them or use --iterations 1")
        return _kmeans_iterative_main(args, app, inputs, config, cluster)
    if args.speculate:
        config = config.with_(speculative_execution=True)
    elastic = (_parse_elastic(args.elastic, args.nodes)
               if args.elastic else None)
    try:
        result = run_glasswing(app, inputs, cluster, config, faults=faults,
                               elastic=elastic)
    except ValueError as exc:    # e.g. crash target outside the cluster
        raise SystemExit(f"invalid fault schedule: {exc}")

    print(f"{app.name} on {args.nodes} node(s), {args.device.upper()} "
          f"kernels, {args.storage} storage, "
          f"{'InfiniBand' if args.network == 'ib' else 'GbE'}")
    print(f"  job time     {result.job_time:10.4f} s")
    print(f"  map phase    {result.map_time:10.4f} s")
    print(f"  merge delay  {result.merge_delay:10.4f} s")
    print(f"  reduce phase {result.reduce_time:10.4f} s")
    for key, value in sorted(result.stats.items()):
        print(f"  {key:<14} {value}")
    if faults is not None or config.speculative_execution:
        m = result.metrics
        print("  fault tolerance:")
        print(f"    node crashes   {m.node_crashes} "
              f"(dead: {result.stats.get('dead_nodes', [])})")
        print(f"    re-executions  {m.reexecutions}")
        print(f"    wasted work    {m.wasted_seconds:.4f} s")
        print(f"    recovery wave  {m.recovery_time:.4f} s")
        print(f"    speculation    {m.speculative_wins}/"
              f"{m.speculative_launches} wins/launches")
    print("  map stage breakdown (node0):")
    for stage, seconds in result.metrics.breakdown("map", "node0").items():
        print(f"    {stage:<9} {seconds:.4f} s")
    n_out = sum(len(v) for v in result.output.values())
    print(f"  output pairs {n_out}")
    if args.explain:
        from repro.obs import PipelineReport
        for phase in ("map", "reduce"):
            print(PipelineReport(result.timeline, phase=phase).explain())
    _write_artifacts(args, timeline=result.timeline,
                     telemetry=result.telemetry, report=result.to_report)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
