"""Acceptance bench of the DAG/iterative engine (``BENCH_dag.json``).

Three deterministic points on a 4-node DFS cluster, all pinned to the
``static-affinity`` scheduler so the committed baseline never depends on
``$REPRO_SCHEDULER``:

* ``dag:kmeans`` — the headline: iterative k-means on the DAG engine
  (shared session, point file pinned in the cross-round cache) versus
  the naive re-submission driver (fresh cluster + cold re-read per
  round) over the same fixed round budget.  Output must be
  **bit-identical**; simulated job time must improve by at least
  :data:`MIN_KMEANS_SPEEDUP`.
* ``dag:pagerank`` — the degree round plus five power-iteration rounds
  over a cached edge list, checked against dense numpy power iteration.
* ``dag:prefixsum`` — the two-stage block-sums/scan DAG, bit-exact
  against ``numpy.cumsum``.

Everything recorded is *virtual* (wall-clock is noted, never gated), so
``repro.bench.regress`` replays the file at 0% drift.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

import numpy as np

from repro.apps import datagen
from repro.apps.drivers import kmeans_iterate
from repro.apps.pagerank import pagerank_iterate, pagerank_reference
from repro.apps.prefixsum import prefix_sums
from repro.core import JobConfig
from repro.core.costs import DEFAULT_HOST_COSTS, HostCosts
from repro.hw.presets import das4_cluster

from repro.bench.harness import ExperimentReport, Table, point_profile

__all__ = ["report", "dag_point", "POINTS", "kmeans_point",
           "pagerank_point", "prefixsum_point", "MIN_KMEANS_SPEEDUP",
           "DAG_NODES"]

#: the acceptance bar: cached iterative k-means must beat naive
#: re-submission by this factor in simulated job time at equal output
MIN_KMEANS_SPEEDUP = 1.5

DAG_NODES = 4
_CHUNK = 256 * 1024

#: k-means operating point: I/O-heavy enough that cold re-reads matter,
#: eight rounds (tolerance 0 pins the round count — the baseline must
#: not depend on convergence luck)
KM_POINTS, KM_CENTERS, KM_DIMS, KM_ROUNDS = 40_000, 8, 4, 8
#: pagerank: five iteration rounds plus the degree round
PR_VERTICES, PR_EDGES, PR_ROUNDS = 2_000, 16_000, 5
#: prefix sums: one two-stage DAG over 100k int64 records
PS_VALUES, PS_BLOCK = 100_000, 4_096

#: quick (CI smoke) shapes — same round budget, fewer points/edges
_QUICK = {"dag:kmeans": dict(n_points=16_000, rounds=8),
          "dag:pagerank": dict(n_vertices=500, n_edges=3_000, rounds=3),
          "dag:prefixsum": dict(n_values=20_000)}


def _dag_config() -> JobConfig:
    return JobConfig(storage="dfs", scheduler="static-affinity",
                     chunk_size=_CHUNK)


def _run_metrics(run) -> Dict[str, Any]:
    """A DAG run's elapsed time, per-round network bytes + cache traffic
    summed, and its causal profile."""
    stage_runs = run.runner.stage_runs
    return {
        "elapsed_s": run.total_time,
        "network_bytes": sum(r.result.stats["network_bytes"]
                             for r in stage_runs),
        "cache_hit_bytes": sum(r.cache_hit_bytes for r in stage_runs),
        "cache_miss_bytes": sum(r.cache_miss_bytes for r in stage_runs),
        "causal": point_profile(run.runner.session.timeline, run.total_time),
    }


def kmeans_point(costs: HostCosts = DEFAULT_HOST_COSTS,
                 n_points: int = KM_POINTS,
                 rounds: int = KM_ROUNDS) -> Dict[str, Any]:
    """Cached DAG k-means vs naive re-submission, same round budget."""
    points = datagen.kmeans_points(n_points, KM_DIMS, seed=17)
    centers = datagen.kmeans_centers(KM_CENTERS, KM_DIMS, seed=19)
    spec = das4_cluster(nodes=DAG_NODES)
    config = _dag_config()
    wall0 = time.perf_counter()
    cached = kmeans_iterate({"points": points}, centers, spec, config,
                            max_iterations=rounds, tolerance=0.0,
                            engine="dag", costs=costs)
    naive = kmeans_iterate({"points": points}, centers, spec, config,
                           max_iterations=rounds, tolerance=0.0,
                           engine="resubmit", costs=costs)
    wall = time.perf_counter() - wall0
    return {
        "app": "dag:kmeans",
        "nodes": DAG_NODES,
        "rounds": rounds,
        "n_points": n_points,
        "k": KM_CENTERS,
        "naive_elapsed_s": naive.total_time,
        "speedup": naive.total_time / cached.total_time,
        "identical_output": (cached.centers.tobytes()
                             == naive.centers.tobytes()),
        **_run_metrics(cached),
        "wall_s": wall,
    }


def pagerank_point(costs: HostCosts = DEFAULT_HOST_COSTS,
                   n_vertices: int = PR_VERTICES, n_edges: int = PR_EDGES,
                   rounds: int = PR_ROUNDS) -> Dict[str, Any]:
    """Iterative PageRank over a cached edge list vs dense numpy."""
    edges = datagen.pagerank_edges(n_vertices, n_edges, seed=31)
    wall0 = time.perf_counter()
    run = pagerank_iterate(edges, n_vertices, das4_cluster(nodes=DAG_NODES),
                           config=_dag_config(), rounds=rounds, costs=costs)
    wall = time.perf_counter() - wall0
    reference = pagerank_reference(edges, n_vertices, rounds)
    return {
        "app": "dag:pagerank",
        "nodes": DAG_NODES,
        "rounds": rounds,
        "n_vertices": n_vertices,
        "n_edges": n_edges,
        "max_abs_err": float(np.max(np.abs(run.ranks - reference))),
        **_run_metrics(run),
        "wall_s": wall,
    }


def prefixsum_point(costs: HostCosts = DEFAULT_HOST_COSTS,
                    n_values: int = PS_VALUES) -> Dict[str, Any]:
    """The two-stage prefix-sums DAG vs ``numpy.cumsum`` (bit-exact)."""
    values = datagen.prefix_values(n_values, seed=29)
    wall0 = time.perf_counter()
    run = prefix_sums(values, das4_cluster(nodes=DAG_NODES),
                      config=_dag_config(), block_size=PS_BLOCK, costs=costs)
    wall = time.perf_counter() - wall0
    rows = np.frombuffer(values, dtype="<i8").reshape(-1, 2)
    reference = np.cumsum(rows[np.argsort(rows[:, 0], kind="stable"), 1])
    return {
        "app": "dag:prefixsum",
        "nodes": DAG_NODES,
        "n_values": n_values,
        "block_size": PS_BLOCK,
        "exact": bool((run.prefix == reference).all()),
        **_run_metrics(run),
        "wall_s": wall,
    }


#: baseline ``app`` label -> the function that measures that point; the
#: function's keyword parameters (``costs`` aside) are the recorded
#: fields ``repro.bench.regress`` replays it from
POINTS = {"dag:kmeans": kmeans_point, "dag:pagerank": pagerank_point,
          "dag:prefixsum": prefixsum_point}


def dag_point(app: str, costs: HostCosts = DEFAULT_HOST_COSTS,
              **kwargs: Any) -> Dict[str, Any]:
    """Dispatch a baseline point by its recorded ``app`` label."""
    if app not in POINTS:
        raise ValueError(f"unknown dag point {app!r}")
    return POINTS[app](costs=costs, **kwargs)


def report(quick: bool = False,
           json_path: Optional[str] = None) -> ExperimentReport:
    """Run the three DAG points; emit the JSON to ``json_path``."""
    rep = ExperimentReport(
        experiment="DAG/iterative engine — cross-round caching on "
                   f"{DAG_NODES} shared nodes",
        paper_claim="iterative MapReduce belongs on a DAG engine: one "
                    "long-lived session with immutable inputs cached "
                    "across rounds beats per-round re-submission at "
                    "bit-identical output, and the MRC multi-round apps "
                    "(prefix sums, PageRank) run as chained stages")

    points = [fn(**(_QUICK[app] if quick else {}))
              for app, fn in POINTS.items()]
    km, pr, ps = points

    table = Table(f"DAG points ({DAG_NODES} nodes, dfs, static-affinity)",
                  ["app", "rounds", "elapsed_s", "network_bytes",
                   "cache_hit_B", "cache_miss_B", "wall_s"])
    for p in points:
        table.add_row(app=p["app"], rounds=p.get("rounds", 1),
                      elapsed_s=p["elapsed_s"],
                      network_bytes=p["network_bytes"],
                      cache_hit_B=p["cache_hit_bytes"],
                      cache_miss_B=p["cache_miss_bytes"],
                      wall_s=p["wall_s"])
    rep.tables.append(table)

    speed = Table("iterative k-means: cached DAG vs naive re-submission",
                  ["engine", "elapsed_s", "speedup"])
    speed.add_row(engine="resubmit", elapsed_s=km["naive_elapsed_s"],
                  speedup=1.0)
    speed.add_row(engine="dag", elapsed_s=km["elapsed_s"],
                  speedup=km["speedup"])
    rep.tables.append(speed)

    rep.check("cached and naive k-means centers are bit-identical",
              km["identical_output"])
    rep.check(f"cached k-means beats re-submission by >= "
              f"{MIN_KMEANS_SPEEDUP}x simulated time",
              km["speedup"] >= MIN_KMEANS_SPEEDUP,
              f"measured {km['speedup']:.2f}x over {km['rounds']} rounds")
    rep.check("prefix sums are bit-exact against numpy.cumsum",
              ps["exact"])
    rep.check("pagerank matches dense power iteration (<= 1e-9 abs)",
              pr["max_abs_err"] <= 1e-9,
              f"max |err| = {pr['max_abs_err']:.2e}")
    rep.check("every point re-read bytes from the cross-round cache",
              all(p["cache_hit_bytes"] > 0 for p in points))

    rep.write_baseline(
        json_path,
        generated_by="python -m repro.bench dag",
        min_kmeans_speedup=MIN_KMEANS_SPEEDUP,
        nodes=DAG_NODES,
        points=points)
    return rep
