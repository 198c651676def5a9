"""Horizontal scaling sweep: 1 → 1024 simulated nodes.

The batched hot path exists so the simulator itself scales: per-record
simulation is the differential-test ground truth, but sweeping a
thousand-node cluster is only tractable when each pipeline payload
carries a whole split.  This experiment measures both axes at once:

* **virtual time** — weak scaling (fixed bytes per node) for WordCount
  and TeraSort, recording elapsed, the dominant pipeline stage and its
  share, and the §III-D overlap factor at every cluster size.  The
  paper's "elapsed converges to the dominant stage" claim is checked at
  the largest size.
* **wall-clock** — the simulator's own cost: every sweep point records
  how long the *simulation* took, and a head-to-head 64-node WordCount
  run compares ``batch_size=1`` against the autotuned batch, asserting
  the batched path is at least :data:`MIN_WALL_SPEEDUP` times faster.

``report(json_path=...)`` writes ``BENCH_scaling.json`` so CI can
smoke-check the sweep and diff the recorded numbers.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, Optional, Sequence

from repro.apps import TeraSortApp, WordCountApp
from repro.apps.datagen import teragen, wiki_text
from repro.core import JobConfig, run_glasswing
from repro.core.costs import DEFAULT_HOST_COSTS, HostCosts
from repro.hw.presets import das4_cluster
from repro.hw.specs import KiB
from repro.obs.report import PipelineReport
from repro.storage.records import NO_COMPRESSION

from repro.bench.harness import ExperimentReport, Table, point_profile

__all__ = ["report", "sweep_point", "NODES", "QUICK_NODES",
           "PER_NODE_BYTES", "SPLITS_PER_NODE", "MIN_WALL_SPEEDUP",
           "WC64_WALL_BUDGET_S",
           "SKEW_NODES", "MIN_SKEW_SPEEDUP"]

#: full weak-scaling ladder (>= 6 sizes up to 1024)
NODES = (1, 4, 16, 64, 256, 1024)
#: reduced ladder for CI perf-smoke and --quick runs
QUICK_NODES = (1, 4, 16, 64)
#: weak-scaling input volume per node
PER_NODE_BYTES = 32 * KiB
#: splits per node (pipelining depth of each map pipeline)
SPLITS_PER_NODE = 2
#: required wall-clock advantage of the batched path at 64 nodes
MIN_WALL_SPEEDUP = 5.0
#: wall-clock budget for the batched 64-node WordCount point.  Recorded
#: from the run that produced the committed BENCH_scaling.json (~0.7 s)
#: with generous headroom for slower CI machines; a regression that
#: drags the batched hot path back toward per-record cost blows this.
WC64_WALL_BUDGET_S = 15.0

#: cluster size of the scheduler-policy comparison on the skewed case
SKEW_NODES = 64
#: required virtual-elapsed advantage of dynamic-locality over
#: static-affinity on the skewed wordcount at :data:`SKEW_NODES` nodes
MIN_SKEW_SPEEDUP = 1.2
#: skewed-case shape: Zipf exponent, files per node and the shuffle seed.
#: Single-replica files pin static-affinity to each file's writer, so the
#: per-node byte imbalance is exactly the (shuffled) Zipf weight spread —
#: the workload dynamic pull rebalances and static assignment cannot.
SKEW_ZIPF_S = 0.7
SKEW_FILES_PER_NODE = 4
SKEW_SEED = 1

_CHUNK = PER_NODE_BYTES // SPLITS_PER_NODE
_TERA_RECORD = 100


def _wc_case(nodes: int):
    app = WordCountApp()
    inputs = {"wiki": wiki_text(PER_NODE_BYTES * nodes, seed=42)}
    cfg = dict(chunk_size=_CHUNK, partitions_per_node=1)
    return app, inputs, cfg


def _ts_case(nodes: int):
    n_records = (PER_NODE_BYTES * nodes) // _TERA_RECORD
    data = teragen(n_records, seed=43)
    app = TeraSortApp.from_input(data, sample_every=29)
    cfg = dict(chunk_size=_CHUNK, partitions_per_node=1,
               output_replication=1, compression=NO_COMPRESSION)
    return app, {"tera": data}, cfg


def _skew_case(nodes: int):
    """Skewed wordcount: one-replica files with shuffled Zipf sizes.

    File == split == block (the chunk size covers the largest file), and
    ``input_replication=1`` leaves each split exactly one local holder —
    its writer — so static affinity is pinned to the install spread while
    the dynamic policies rebalance the byte skew at runtime.
    """
    total = PER_NODE_BYTES * nodes
    n_files = SKEW_FILES_PER_NODE * nodes
    weights = [1.0 / (i + 1) ** SKEW_ZIPF_S for i in range(n_files)]
    scale = total / sum(weights)
    sizes = [max(512, int(w * scale)) for w in weights]
    sizes[0] += total - sum(sizes)      # exact total on the largest file
    random.Random(SKEW_SEED).shuffle(sizes)
    text = wiki_text(total, seed=42)
    inputs, offset = {}, 0
    for i, size in enumerate(sizes):
        inputs[f"skew{i:04d}"] = text[offset:offset + size]
        offset += size
    cfg = dict(chunk_size=max(sizes), partitions_per_node=1,
               input_replication=1)
    return WordCountApp(), inputs, cfg


_CASES = {"wordcount": _wc_case, "terasort": _ts_case,
          "wordcount-skew": _skew_case}
#: cases swept across the whole node ladder (the skew case is a 64-node
#: scheduler comparison, not a weak-scaling ladder member)
_LADDER = ("terasort", "wordcount")


def sweep_point(case: str, nodes: int,
                batch_size: Optional[int] = None,
                costs: HostCosts = DEFAULT_HOST_COSTS,
                scheduler: str = "static-affinity") -> Dict[str, Any]:
    """Run one (app, cluster size) cell; returns its JSON record.

    ``costs`` overrides the host cost model — the regression gate's
    self-test injects a slowed model here to prove it trips.  The
    scheduling policy is pinned to ``static-affinity`` (not the
    ``$REPRO_SCHEDULER`` session default), so the committed baseline and
    the regression gate always compare the compatibility policy.
    """
    app, inputs, cfg_kwargs = _CASES[case](nodes)
    cfg = JobConfig(batch_size=batch_size, scheduler=scheduler,
                    **cfg_kwargs)
    wall0 = time.perf_counter()
    res = run_glasswing(app, inputs, das4_cluster(nodes=nodes), cfg,
                        costs=costs)
    wall = time.perf_counter() - wall0
    point: Dict[str, Any] = {
        "app": case,
        "nodes": nodes,
        "scheduler": scheduler,
        "batch_size": res.stats["batch_size"],
        "batch_autotuned": res.stats["batch_autotuned"],
        "input_bytes": sum(len(v) for v in inputs.values()),
        "elapsed_s": res.job_time,
        "map_s": res.map_time,
        "merge_delay_s": res.merge_delay,
        "reduce_s": res.reduce_time,
        "wall_s": wall,
        "network_bytes": res.stats["network_bytes"],
        "leaked_buffer_slots": res.stats["leaked_buffer_slots"],
        "leaked_processes": res.stats["leaked_processes"],
    }
    for phase in ("map", "reduce"):
        rep = PipelineReport(res.timeline, phase)
        util = rep.utilization()
        dominant = rep.dominant_stage
        point[phase + "_pipeline"] = {
            "overlap_factor": rep.overlap_factor,
            "dominant_stage": dominant,
            "dominant_share": util.get(dominant, 0.0) if dominant else 0.0,
        }
    point["causal"] = point_profile(res.timeline, res.job_time)
    return point


def report(quick: bool = False, nodes: Optional[Sequence[int]] = None,
           json_path: Optional[str] = None) -> ExperimentReport:
    """Run the sweep + the 64-node wall-clock comparison; emit the JSON.
    ``nodes`` overrides the ladder: a check at a size it lacks is not run."""
    if nodes is None:
        nodes = QUICK_NODES if quick else NODES
    rep = ExperimentReport(
        experiment="Scaling sweep — horizontal (1..1024 nodes) x batched "
                    "hot path",
        paper_claim="elapsed time converges to the dominant pipeline stage "
                    "as the cluster scales; the simulator's batched data "
                    "path keeps the sweep tractable")

    points = []
    for case in _LADDER:
        for n in nodes:
            points.append(sweep_point(case, n))

    # Scheduler-policy comparison on the skewed WordCount: Zipf split
    # sizes with one replica pin static affinity to the install-time
    # spread, while the dynamic policies pull work at runtime.  The
    # static point joins the sweep so the regression gate guards it.
    sched_comparison = None
    if SKEW_NODES in nodes:
        by_policy = {
            policy: sweep_point("wordcount-skew", SKEW_NODES,
                                scheduler=policy)
            for policy in ("static-affinity", "dynamic-locality",
                           "oplevel")}
        points.append(by_policy["static-affinity"])
        static_e = by_policy["static-affinity"]["elapsed_s"]
        dyn_e = by_policy["dynamic-locality"]["elapsed_s"]
        speedup = static_e / max(dyn_e, 1e-9)
        sched_comparison = {
            "nodes": SKEW_NODES,
            "app": "wordcount-skew",
            "elapsed_s": {pol: p["elapsed_s"]
                          for pol, p in by_policy.items()},
            "dynamic_speedup": speedup,
        }
        rep.check(
            f"dynamic-locality >= {MIN_SKEW_SPEEDUP:.1f}x faster than "
            f"static-affinity on skewed wordcount @ {SKEW_NODES} nodes",
            speedup >= MIN_SKEW_SPEEDUP,
            "; ".join(f"{pol} {p['elapsed_s']:.4f}s"
                      for pol, p in sorted(by_policy.items()))
            + f" ({speedup:.2f}x)")

    table = Table("weak scaling (%d KiB/node)" % (PER_NODE_BYTES // KiB),
                  ["app", "nodes", "elapsed_s", "map_s", "reduce_s",
                   "dominant", "dom_share", "overlap", "wall_s"])
    for p in points:
        table.add_row(app=p["app"], nodes=p["nodes"],
                      elapsed_s=p["elapsed_s"], map_s=p["map_s"],
                      reduce_s=p["reduce_s"],
                      dominant=p["map_pipeline"]["dominant_stage"],
                      dom_share=p["map_pipeline"]["dominant_share"],
                      overlap=p["map_pipeline"]["overlap_factor"],
                      wall_s=p["wall_s"])
    rep.tables.append(table)

    rep.check("no sweep point leaked buffer slots",
              all(p["leaked_buffer_slots"] == 0 for p in points))
    rep.check("weak scaling holds elapsed within 100x of the 1-node run",
              all(p["elapsed_s"] < 100 * points_for(points, p["app"])[0]
                  ["elapsed_s"] for p in points),
              "per-node work constant; growth comes from the shuffle")

    # Dominant-stage convergence at the largest swept size: the paper's
    # shape property is that the pipeline hides every non-dominant
    # stage, i.e. elapsed approaches the dominant stage's active time
    # from above — equivalently, the measured overlap factor approaches
    # its upper bound sum(stage occupied) / dominant-stage occupied.
    largest = max(nodes)
    tol = 0.15
    for case in _LADDER:
        p = points_for(points, case)[-1]
        pipe = p["map_pipeline"]
        share = pipe["dominant_share"]
        bound = pipe["overlap_factor"] / share if share else float("inf")
        rep.check(
            f"{case}@{largest}: overlap factor within {tol:.0%} of the "
            f"dominant-stage bound",
            share >= 1.0 - tol,
            f"overlap {pipe['overlap_factor']:.2f}x vs bound {bound:.2f}x; "
            f"dominant {pipe['dominant_stage']} covers {share:.0%} of "
            f"elapsed")

    # Wall-clock: the reason the batched path exists.  Per-record
    # simulation of the 64-node WordCount point vs the autotuned batch.
    comparison = None
    if 64 in nodes:
        # Best-of-2 wall clocks: a single measurement is noise-prone and
        # this ratio is the acceptance number for the whole batched path.
        # (Virtual time is NOT asserted equal here: the default config
        # runs hash collector + combiner, whose contention and partial
        # aggregation legitimately depend on launch granularity — the
        # strict-tier differential tests pin virtual time instead.)
        sweep_batched = next(p for p in points_for(points, "wordcount")
                             if p["nodes"] == 64)
        batched = min(sweep_batched, sweep_point("wordcount", 64),
                      key=lambda p: p["wall_s"])
        per_record = min((sweep_point("wordcount", 64, batch_size=1)
                          for _ in range(2)), key=lambda p: p["wall_s"])
        speedup = per_record["wall_s"] / max(batched["wall_s"], 1e-9)
        comparison = {
            "nodes": 64,
            "app": "wordcount",
            "per_record_wall_s": per_record["wall_s"],
            "batched_wall_s": batched["wall_s"],
            "wall_speedup": speedup,
            "per_record_elapsed_s": per_record["elapsed_s"],
            "batched_elapsed_s": batched["elapsed_s"],
        }
        # Measured seconds go in a note: a check reads the same each run.
        rep.check(
            f"batched 64-node wordcount >= {MIN_WALL_SPEEDUP:.0f}x faster "
            f"wall-clock than batch_size=1", speedup >= MIN_WALL_SPEEDUP)
        rep.check(
            f"batched 64-node wordcount wall-clock under the recorded "
            f"budget ({WC64_WALL_BUDGET_S:.0f}s)",
            batched["wall_s"] <= WC64_WALL_BUDGET_S)
        rep.notes.append(f"64-node wordcount wall-clock: batch_size=1 "
                         f"{per_record['wall_s']:.2f}s -> batched "
                         f"{batched['wall_s']:.2f}s ({speedup:.1f}x)")

    rep.write_baseline(
        json_path,
        generated_by="python -m repro.bench scaling",
        per_node_bytes=PER_NODE_BYTES,
        splits_per_node=SPLITS_PER_NODE,
        nodes_swept=list(nodes),
        wall_budget_s={"wordcount_64_batched": WC64_WALL_BUDGET_S},
        sweep=points,
        batch_comparison=comparison,
        sched_comparison=sched_comparison)
    return rep


def points_for(points, case: str):
    """The sweep points of one app, in ascending node order."""
    return sorted((p for p in points if p["app"] == case),
                  key=lambda p: p["nodes"])
