"""Elastic-membership chaos bench (``BENCH_elastic.json``).

Three deterministic chaos points on an 8-node DFS cluster, pinned to
``static-affinity`` (the committed baseline must not depend on
``$REPRO_SCHEDULER``).  Each point measures a *static* run first and
then replays the same job under membership churn, asserting the
headline elasticity guarantee — the chaos output is **byte-identical**
to the static output — alongside the perf deltas:

* ``elastic:double`` — the job starts on 4 of 8 nodes; 4 standbys join
  mid-map (times derived from the measured static map extent, so the
  replay is deterministic) and start stealing splits.  Growing the
  cluster must never slow the job down.
* ``elastic:halve`` — the job starts on all 8 nodes; 4 drain mid-map
  through the recovery path.  Their durable spill stays readable, so
  most lost work re-homes by re-push, not re-execution — both counters
  are recorded exactly.
* ``elastic:failover`` — a 3-replica coordinator loses its leader
  mid-map and again mid-reduce.  Each failover costs exactly the
  configured election delay and nothing else:
  ``elapsed == static + 2 * failover_timeout``.

Everything recorded is *virtual* (wall-clock is noted, never gated), so
``repro.bench.regress`` replays the file at 0% drift.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.apps import WordCountApp
from repro.apps.datagen import wiki_text
from repro.core import JobConfig, run_glasswing
from repro.core.costs import DEFAULT_HOST_COSTS, HostCosts
from repro.core.faults import (CoordinatorCrash, FaultPlan, NodeJoin,
                               NodeLeave)
from repro.hw.presets import das4_cluster

from repro.bench.harness import ExperimentReport, Table, point_profile

__all__ = ["report", "elastic_point", "POINTS", "double_point",
           "halve_point", "failover_point", "ELASTIC_NODES",
           "FAILOVER_TIMEOUT"]

ELASTIC_NODES = 8
_HALF = ELASTIC_NODES // 2
#: pinned election delay for the failover point — the overhead check is
#: exact, so the constant is part of the committed baseline's shape
FAILOVER_TIMEOUT = 0.002

#: default input size (kilobytes of generated text); quick mode shrinks.
#: The quick size must keep the doubling run on the right side of the
#: split-count discretisation: below ~5 chunks per initial node the
#: joiners arrive with nothing left to steal and the measured speedup
#: dips under 1.0 even though the run is strictly no slower per split.
KILOBYTES = 160
_QUICK_KILOBYTES = 96


def _config(**overrides: Any) -> JobConfig:
    return JobConfig(chunk_size=16 * 1024, storage="dfs",
                     scheduler="static-affinity", input_replication=3,
                     **overrides)


def _inputs(kilobytes: int) -> Dict[str, bytes]:
    return {"wiki": wiki_text(kilobytes * 1024, seed=71)}


def _point(app: str, base, chaos, wall: float,
           **fields: Any) -> Dict[str, Any]:
    """One point's record: the chaos run against its static run."""
    return {
        "app": app,
        "nodes": ELASTIC_NODES,
        **fields,
        "elapsed_s": chaos.job_time,
        "baseline_elapsed_s": base.job_time,
        "identical_output": chaos.sorted_output() == base.sorted_output(),
        "network_bytes": chaos.stats["network_bytes"],
        "leaked_buffer_slots": chaos.stats["leaked_buffer_slots"],
        "causal": point_profile(chaos.timeline, chaos.job_time),
        "wall_s": wall,
    }


def double_point(costs: HostCosts = DEFAULT_HOST_COSTS,
                 kilobytes: int = KILOBYTES) -> Dict[str, Any]:
    """Half-cluster job + 4 mid-map joins vs the static half-cluster."""
    spec = das4_cluster(nodes=ELASTIC_NODES)
    inputs = _inputs(kilobytes)
    wall0 = time.perf_counter()
    base = run_glasswing(WordCountApp(), inputs, spec,
                         _config(active_nodes=_HALF), costs=costs)
    # Joins land inside the measured map window — deterministic because
    # the static run is replayed first.
    joins = tuple(NodeJoin(None, (0.1 + 0.1 * i) * base.map_time)
                  for i in range(_HALF))
    chaos = run_glasswing(WordCountApp(), inputs, spec,
                          _config(active_nodes=_HALF), costs=costs,
                          faults=FaultPlan(node_joins=joins))
    wall = time.perf_counter() - wall0
    return _point("elastic:double", base, chaos, wall, kilobytes=kilobytes,
                  active_nodes=_HALF,
                  speedup=base.job_time / chaos.job_time,
                  joined=len(chaos.stats["joined_nodes"]))


def halve_point(costs: HostCosts = DEFAULT_HOST_COSTS,
                kilobytes: int = KILOBYTES) -> Dict[str, Any]:
    """Full-cluster job + 4 mid-map drains vs the static full cluster."""
    spec = das4_cluster(nodes=ELASTIC_NODES)
    inputs = _inputs(kilobytes)
    wall0 = time.perf_counter()
    base = run_glasswing(WordCountApp(), inputs, spec, _config(),
                         costs=costs)
    leaves = tuple(NodeLeave(None, (0.1 + 0.1 * i) * base.map_time)
                   for i in range(_HALF))
    chaos = run_glasswing(WordCountApp(), inputs, spec, _config(),
                          costs=costs,
                          faults=FaultPlan(node_leaves=leaves))
    wall = time.perf_counter() - wall0
    return _point("elastic:halve", base, chaos, wall, kilobytes=kilobytes,
                  active_nodes=ELASTIC_NODES,
                  slowdown=chaos.job_time / base.job_time,
                  departed=len(chaos.stats["departed_nodes"]),
                  repushed_runs=chaos.stats["repushed_runs"],
                  reexecuted_splits=chaos.stats["reexecuted_splits"])


def failover_point(costs: HostCosts = DEFAULT_HOST_COSTS,
                   kilobytes: int = KILOBYTES) -> Dict[str, Any]:
    """Kill the coordinator leader mid-map and mid-reduce (3 replicas)."""
    spec = das4_cluster(nodes=ELASTIC_NODES)
    inputs = _inputs(kilobytes)
    config = _config(coordinator_replicas=3,
                     failover_timeout=FAILOVER_TIMEOUT)
    wall0 = time.perf_counter()
    base = run_glasswing(WordCountApp(), inputs, spec, config, costs=costs)
    # The first failover shifts everything after the map barrier by the
    # election delay, so the chaos run's reduce window is the static one
    # translated by FAILOVER_TIMEOUT.
    reduce_start = base.job_time - base.reduce_time
    crashes = (CoordinatorCrash(0.3 * base.map_time),
               CoordinatorCrash(reduce_start + FAILOVER_TIMEOUT
                                + 0.5 * base.reduce_time))
    chaos = run_glasswing(WordCountApp(), inputs, spec, config, costs=costs,
                          faults=FaultPlan(coordinator_crashes=crashes))
    wall = time.perf_counter() - wall0
    return _point("elastic:failover", base, chaos, wall, kilobytes=kilobytes,
                  replicas=3, failover_timeout=FAILOVER_TIMEOUT,
                  failovers=chaos.stats["coordinator_failovers"],
                  overhead_s=chaos.job_time - base.job_time)


#: baseline ``app`` label -> the function that measures that point (see
#: :data:`repro.bench.dag.POINTS`)
POINTS = {"elastic:double": double_point, "elastic:halve": halve_point,
          "elastic:failover": failover_point}


def elastic_point(app: str, costs: HostCosts = DEFAULT_HOST_COSTS,
                  **kwargs: Any) -> Dict[str, Any]:
    """Dispatch a baseline point by its recorded ``app`` label."""
    if app not in POINTS:
        raise ValueError(f"unknown elastic point {app!r}")
    return POINTS[app](costs=costs, **kwargs)


def report(quick: bool = False,
           json_path: Optional[str] = None) -> ExperimentReport:
    """Run the three chaos points; emit the JSON to ``json_path``."""
    rep = ExperimentReport(
        experiment="elastic membership + coordinator failover — chaos "
                   f"points on {ELASTIC_NODES} nodes",
        paper_claim="MapReduce scales horizontally at runtime: nodes "
                    "join and leave mid-job and the coordinator fails "
                    "over, all without changing a byte of output — "
                    "growth only speeds the job up, drains cost a "
                    "bounded recovery wave, and each failover costs "
                    "exactly one election delay")

    kilobytes = _QUICK_KILOBYTES if quick else KILOBYTES
    points = [fn(kilobytes=kilobytes) for fn in POINTS.values()]
    double, halve, failover = points

    table = Table(f"chaos points ({ELASTIC_NODES} nodes, dfs, "
                  "static-affinity)",
                  ["app", "static_s", "chaos_s", "identical", "wall_s"])
    for p in points:
        table.add_row(app=p["app"], static_s=p["baseline_elapsed_s"],
                      chaos_s=p["elapsed_s"],
                      identical=p["identical_output"], wall_s=p["wall_s"])
    rep.tables.append(table)

    rep.check("every chaos schedule leaves the output byte-identical",
              all(p["identical_output"] for p in points))
    rep.check("no chaos schedule leaks a buffer slot",
              all(p["leaked_buffer_slots"] == 0 for p in points))
    rep.check(f"all {_HALF} standbys joined the doubling run",
              double["joined"] == _HALF)
    rep.check("doubling the cluster mid-map never slows the job down",
              double["speedup"] >= 1.0,
              f"measured {double['speedup']:.3f}x")
    rep.check(f"all {_HALF} drains completed in the halving run",
              halve["departed"] == _HALF)
    rep.check("draining re-homes work by re-push, not only re-execution",
              halve["repushed_runs"] > 0,
              f"{halve['repushed_runs']} runs re-pushed, "
              f"{halve['reexecuted_splits']} splits re-executed")
    rep.check("both coordinator crashes failed over",
              failover["failovers"] == 2)
    rep.check("each failover costs exactly the election delay",
              abs(failover["overhead_s"] - 2 * FAILOVER_TIMEOUT) < 1e-12,
              f"overhead {failover['overhead_s']:.6f}s vs "
              f"2 x {FAILOVER_TIMEOUT}s")

    rep.write_baseline(
        json_path,
        generated_by="python -m repro.bench elastic",
        nodes=ELASTIC_NODES,
        failover_timeout=FAILOVER_TIMEOUT,
        points=points)
    return rep
