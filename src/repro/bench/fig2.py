"""Figure 2: horizontal scalability of the I/O-bound applications.

Reproduces the three panels of the paper's Figure 2 — Pageview Count,
WordCount and TeraSort on the Type-1 CPU cluster over HDFS — as
time+speedup tables for Hadoop and Glasswing, with the paper's claims as
shape checks:

* 2(a) PVC: "the speedup of Glasswing and Hadoop is very comparable ...
  in execution time Glasswing is nearly twice as fast as Hadoop".
* 2(b) WC: "Glasswing performs 1.6 times faster sequentially than
  Hadoop, and its scaling is better" (2.48x at 64 nodes; 64% parallel
  efficiency vs 37%).
* 2(c) TS: "Glasswing outperforms Hadoop on 64 nodes by a factor of 2.7"
  (from ~1.2x at 4 nodes); output replication 1; runs on >= 4 nodes.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

from repro.apps import PageViewApp, TeraSortApp, WordCountApp
from repro.baselines.hadoop import HadoopConfig, run_hadoop
from repro.core import JobConfig, run_glasswing
from repro.core.api import MapReduceApp
from repro.hw.presets import das4_cluster
from repro.hw.specs import KiB
from repro.storage.records import NO_COMPRESSION

from repro.bench import workloads
from repro.bench.harness import (ExperimentReport, Table,
                                 parallel_efficiency, speedups)

__all__ = ["pvc_report", "wc_report", "ts_report", "NODES", "QUICK_NODES",
           "TS_NODES", "TS_QUICK_NODES"]

NODES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
#: 2(a)'s "comparable" check reads its largest size up to 16 nodes and
#: 2(b)'s "~1.6x" the single node
QUICK_NODES: Tuple[int, ...] = (1, 4, 16)
TS_NODES: Tuple[int, ...] = (4, 8, 16, 32, 64)
#: the paper states 2(c)'s gap at 4 and at 64 nodes
TS_QUICK_NODES: Tuple[int, ...] = (4, 64)
CHUNK = 192 * KiB     # scaled HDFS block / split size


def _sweep(app_factory: Callable[[], MapReduceApp], inputs: Dict[str, bytes],
           nodes: Sequence[int], gw_config: JobConfig,
           hd_config: HadoopConfig, title: str) -> Table:
    """Run Hadoop and Glasswing across the node counts; build the table."""
    table = Table(title, ["nodes", "hadoop_s", "glasswing_s", "ratio",
                          "hadoop_speedup", "glasswing_speedup"])
    hd_times, gw_times = [], []
    for n in nodes:
        cluster = das4_cluster(nodes=n)
        hd = run_hadoop(app_factory(), inputs, cluster, hd_config)
        gw = run_glasswing(app_factory(), inputs, cluster, gw_config)
        hd_times.append(hd.job_time)
        gw_times.append(gw.job_time)
    hd_speed = speedups(hd_times)
    gw_speed = speedups(gw_times)
    for i, n in enumerate(nodes):
        table.add_row(nodes=n, hadoop_s=hd_times[i], glasswing_s=gw_times[i],
                      ratio=hd_times[i] / gw_times[i],
                      hadoop_speedup=hd_speed[i],
                      glasswing_speedup=gw_speed[i])
    return table


def pvc_report(quick: bool = False) -> ExperimentReport:
    """Figure 2(a): Pageview Count."""
    nodes = QUICK_NODES if quick else NODES
    report = ExperimentReport(
        experiment="Figure 2(a) — PVC, Hadoop vs Glasswing (CPU, HDFS)",
        paper_claim="speedups very comparable; Glasswing nearly twice as "
                    "fast in execution time, scaling slightly better at "
                    "large node counts")
    table = _sweep(PageViewApp, workloads.pvc_input(), nodes,
                   JobConfig(chunk_size=CHUNK),
                   HadoopConfig(chunk_size=CHUNK),
                   "PVC execution time and speedup")
    report.tables.append(table)
    ratios = table.column("ratio")
    report.check("glasswing ~2x faster at every node count",
                 all(1.4 <= r <= 3.5 for r in ratios),
                 f"ratios {['%.2f' % r for r in ratios]}")
    hd_s, gw_s = table.column("hadoop_speedup"), table.column("glasswing_speedup")
    # "comparable" is judged at mid-scale (the largest sweep point up to
    # 16 nodes), before the scale-amplified tail.
    mid_candidates = [i for i, n in enumerate(nodes) if n <= 16]
    mid = mid_candidates[-1] if mid_candidates else 0
    report.check("speedups very comparable through mid-scale",
                 abs(gw_s[mid] - hd_s[mid]) <= 0.35 * max(hd_s[mid], 1.0),
                 f"at {nodes[mid]} nodes: gw {gw_s[mid]:.1f} vs "
                 f"hd {hd_s[mid]:.1f}")
    report.check("glasswing scales at least as well at the largest size",
                 gw_s[-1] >= 0.9 * hd_s[-1])
    report.notes.append(
        "at 1/1000 data scale the largest clusters amplify Hadoop's fixed "
        "per-task costs, widening the tail ratio beyond the paper's ~2x "
        "(see EXPERIMENTS.md, deviation 2)")
    return report


def wc_report(quick: bool = False) -> ExperimentReport:
    """Figure 2(b): WordCount."""
    nodes = QUICK_NODES if quick else NODES
    report = ExperimentReport(
        experiment="Figure 2(b) — WC, Hadoop vs Glasswing (CPU, HDFS)",
        paper_claim="1.6x faster on one node growing to 2.48x on 64; "
                    "parallel efficiency 64% vs Hadoop's 37%")
    table = _sweep(WordCountApp, workloads.wc_input(), nodes,
                   JobConfig(chunk_size=CHUNK),
                   HadoopConfig(chunk_size=CHUNK),
                   "WC execution time and speedup")
    report.tables.append(table)
    ratios = table.column("ratio")
    report.check("~1.6x on a single node", 1.2 <= ratios[0] <= 2.4,
                 f"measured {ratios[0]:.2f}")
    report.check("advantage grows with the cluster",
                 ratios[-1] > ratios[0],
                 f"{ratios[0]:.2f} -> {ratios[-1]:.2f}")
    ns = list(nodes)
    eff_gw = parallel_efficiency(ns, [r for r in table.column("glasswing_s")])
    eff_hd = parallel_efficiency(ns, [r for r in table.column("hadoop_s")])
    report.check("glasswing's parallel efficiency beats hadoop's",
                 eff_gw > eff_hd,
                 f"gw {eff_gw:.0%} vs hd {eff_hd:.0%}")
    return report


def ts_report(quick: bool = False) -> ExperimentReport:
    """Figure 2(c): TeraSort (output replication 1, >= 4 nodes)."""
    nodes = TS_QUICK_NODES if quick else TS_NODES
    inputs = workloads.ts_input()
    data = inputs["teragen"]

    def app_factory():
        return TeraSortApp.from_input(data, sample_every=499)

    report = ExperimentReport(
        experiment="Figure 2(c) — TS, Hadoop vs Glasswing (CPU, HDFS)",
        paper_claim="performance gap grows from 1.2x on 4 nodes to 2.7x "
                    "on 64 nodes; totally ordered out-of-core sort")
    # Glasswing tuned per app, as the paper does: a roomier partition
    # cache and file budget keep the incompressible TeraSort data from
    # being re-read/re-written by compaction passes.
    gw_cfg = JobConfig(chunk_size=CHUNK, output_replication=1,
                       compression=NO_COMPRESSION,
                       cache_threshold=4 * 1024 * 1024,
                       max_intermediate_files=8)
    hd_cfg = HadoopConfig(chunk_size=CHUNK, output_replication=1,
                          compression=NO_COMPRESSION)
    table = _sweep(app_factory, inputs, nodes, gw_cfg, hd_cfg,
                   "TS execution time and speedup")
    report.tables.append(table)
    ratios = table.column("ratio")
    report.check("glasswing ahead already at the smallest cluster",
                 ratios[0] >= 1.05, f"measured {ratios[0]:.2f}")
    report.check("gap grows with the cluster", ratios[-1] > ratios[0],
                 f"{ratios[0]:.2f} -> {ratios[-1]:.2f}")
    gap = ratios[nodes.index(64)]
    report.check("final gap in the paper's band", 1.5 <= gap <= 4.0,
                 f"measured {gap:.2f}")
    return report
