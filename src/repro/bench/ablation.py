"""Ablations of Glasswing's design choices (beyond the paper's figures).

DESIGN.md calls out the load-bearing design decisions; each gets a
dedicated ablation so a reader can see what it buys:

* pipeline buffering level (1/2/3) across applications;
* push-based vs pull-based shuffle (Glasswing vs the Hadoop engine's pull
  with everything else equalised as far as the engines allow);
* hash-table collector contention as a function of key repetition;
* file-affinity scheduling on/off (affinity is emulated off by using a
  locality-blind backend);
* overlapping (double-buffered) pipeline vs a fully serialised one.
"""

from __future__ import annotations

from repro.apps import KMeansApp, WordCountApp
from repro.apps.datagen import wiki_text
from repro.core import JobConfig, run_glasswing
from repro.hw.presets import GBE, QDR_IB, das4_cluster
from repro.hw.specs import DeviceKind, KiB

from repro.bench import workloads
from repro.bench.harness import ExperimentReport, Table

__all__ = ["buffering_report", "collector_contention_report",
           "affinity_report", "network_report", "phase_device_report",
           "NODES"]

CHUNK = 256 * KiB
#: cluster size of the affinity and interconnect ablations
NODES = 8


def buffering_report(quick: bool = False) -> ExperimentReport:
    """Single/double/triple buffering across the I/O-bound apps."""
    rep = ExperimentReport(
        experiment="Ablation — pipeline buffering level",
        paper_claim="§III-D: higher buffering relaxes the stage interlock; "
                    "the trade-off depends on the application")
    inputs = workloads.wc_input()
    table = Table("WC job time vs buffering level",
                  ("buffering", "map_s", "job_s"))
    times = {}
    for level in (1, 2, 3):
        res = run_glasswing(WordCountApp(), inputs, das4_cluster(nodes=1),
                            JobConfig(chunk_size=CHUNK, storage="local",
                                      buffering=level))
        times[level] = res
        table.add_row(buffering=level, map_s=res.map_time,
                      job_s=res.job_time)
    rep.tables.append(table)
    rep.check("double buffering beats single",
              times[2].map_time < times[1].map_time,
              f"{times[1].map_time:.3f} -> {times[2].map_time:.3f}")
    rep.check("triple buffering adds little over double (CPU-contended)",
              times[3].map_time < times[1].map_time
              and abs(times[3].map_time - times[2].map_time)
              < 0.25 * times[2].map_time)
    return rep


def collector_contention_report(quick: bool = False) -> ExperimentReport:
    """Hash-table kernel slowdown vs key repetition.

    The paper's own contrast: PVC's web logs are "highly sparse in that
    duplicate URLs are rare" (little bucket contention) while WC "exhibits
    a high repetition of a number of keys which increases the contention
    on the hash table".  The same app (URL/word counting) runs over both
    key distributions with each collector; the hash/buffer kernel-time
    ratio is the contention penalty.
    """
    from repro.apps import PageViewApp
    from repro.apps.datagen import web_logs
    from repro.core.collector import collect_map_output
    from repro.hw.presets import CPU_TYPE1

    rep = ExperimentReport(
        experiment="Ablation — collector contention vs key repetition",
        paper_claim="§IV-B.1: WC's repeated keys contend on hash buckets "
                    "(threads loop on atomics); PVC's sparse URLs barely "
                    "contend")
    table = Table("per-chunk contention and kernel penalty by workload",
                  ("workload", "contention", "hash_kernel_s",
                   "buffer_kernel_s", "penalty"))
    cases = [
        ("sparse URLs (PVC)", PageViewApp(),
         {"logs": web_logs(4 * 1024 * 1024, seed=77)}),
        ("zipf words (WC)", WordCountApp(),
         {"wiki": wiki_text(4 * 1024 * 1024, seed=78)}),
        ("tiny vocabulary (WC)", WordCountApp(),
         {"wiki": wiki_text(4 * 1024 * 1024, seed=79, vocab_size=300)}),
    ]
    rows = []
    for label, app, inputs in cases:
        # Per-chunk contention measured exactly as the collector sees it.
        sample = app.map_batch(
            app.record_format.split_records(
                next(iter(inputs.values()))[:CHUNK]))
        out, extra = collect_map_output("hash", app, CPU_TYPE1, sample,
                                        use_combiner=False, chunk_index=0)
        contention = extra.atomic_intensity
        hash_res = run_glasswing(
            app, inputs, das4_cluster(nodes=1),
            JobConfig(chunk_size=CHUNK, storage="local", collector="hash",
                      use_combiner=False))
        buf_res = run_glasswing(
            app, inputs, das4_cluster(nodes=1),
            JobConfig(chunk_size=CHUNK, storage="local", collector="buffer",
                      use_combiner=False))
        hk = hash_res.metrics.stage_time("map", "kernel", "node0")
        bk = buf_res.metrics.stage_time("map", "kernel", "node0")
        rows.append((contention, hk / bk))
        table.add_row(workload=label, contention=contention,
                      hash_kernel_s=hk, buffer_kernel_s=bk,
                      penalty=hk / bk)
    rep.tables.append(table)
    rep.check("hash kernel always pays at least the probing overhead",
              all(p > 1.0 for _, p in rows))
    rep.check("sparse keys contend far less than repetitive keys",
              rows[0][0] < 0.7 * rows[-1][0],
              f"PVC {rows[0][0]:.2f} vs tiny-vocab WC {rows[-1][0]:.2f}")
    rep.check("the kernel penalty tracks the contention",
              rows[0][1] < rows[-1][1],
              f"{rows[0][1]:.2f} -> {rows[-1][1]:.2f}")
    return rep


def affinity_report(quick: bool = False) -> ExperimentReport:
    """File-affinity scheduling: local block reads vs remote streams."""
    rep = ExperimentReport(
        experiment="Ablation — file-affinity scheduling",
        paper_claim="§IV-A: Glasswing's scheduler considers file affinity "
                    "in its job allocation (like Hadoop's data locality)")
    inputs = workloads.wc_input()
    cluster = das4_cluster(nodes=NODES)
    with_aff = run_glasswing(WordCountApp(), inputs, cluster,
                             JobConfig(chunk_size=CHUNK,
                                       input_replication=3))
    # Replication 1 with round-robin block placement makes most splits
    # remote for their assigned node only if assignment ignores locality;
    # with affinity they are still local. To ablate affinity itself we
    # compare against replication 1, which leaves the scheduler almost no
    # freedom and forces remote reads whenever placement and load balance
    # conflict.
    no_freedom = run_glasswing(WordCountApp(), inputs, cluster,
                               JobConfig(chunk_size=CHUNK,
                                         input_replication=1))
    rep.tables.append(_two_row_table(
        "network bytes moved during the job",
        ("config", "job_s", "network_bytes"),
        [("replication 3 + affinity", with_aff.job_time,
          with_aff.stats["network_bytes"]),
         ("replication 1 (no placement freedom)", no_freedom.job_time,
          no_freedom.stats["network_bytes"])]))
    rep.check("affinity keeps input reads local (less network traffic)",
              with_aff.stats["network_bytes"]
              <= no_freedom.stats["network_bytes"])
    return rep


def _two_row_table(title, columns, rows):
    t = Table(title, columns)
    for row in rows:
        t.add_row(**dict(zip(columns, row)))
    return t


def network_report(quick: bool = False) -> ExperimentReport:
    """Interconnect ablation: GbE vs QDR InfiniBand (the paper's cluster
    has both; the experiments use IP over InfiniBand)."""
    rep = ExperimentReport(
        experiment="Ablation — GbE vs QDR InfiniBand",
        paper_claim="§IV: nodes are connected via Gigabit Ethernet and "
                    "QDR InfiniBand; the experiments run IP over "
                    "InfiniBand (shuffle-heavy jobs need the bandwidth)")
    inputs = workloads.wc_input()
    cfg = JobConfig(chunk_size=CHUNK, use_combiner=False)
    ib = run_glasswing(WordCountApp(), inputs,
                       das4_cluster(nodes=NODES, network=QDR_IB), cfg)
    gbe = run_glasswing(WordCountApp(), inputs,
                        das4_cluster(nodes=NODES, network=GBE), cfg)
    rep.tables.append(_two_row_table(
        f"WC (no combiner) on {NODES} nodes",
        ("network", "job_s", "network_bytes"),
        [("QDR InfiniBand", ib.job_time, ib.stats["network_bytes"]),
         ("Gigabit Ethernet", gbe.job_time, gbe.stats["network_bytes"])]))
    rep.check("the shuffle-heavy job is faster on InfiniBand",
              ib.job_time < gbe.job_time,
              f"IB {ib.job_time:.3f}s vs GbE {gbe.job_time:.3f}s")
    rep.check("both move the same bytes (the fabric, not the volume)",
              abs(ib.stats["network_bytes"] - gbe.stats["network_bytes"])
              < 0.01 * max(ib.stats["network_bytes"], 1))
    return rep


def phase_device_report(quick: bool = False) -> ExperimentReport:
    """Per-phase device flexibility: map on the GPU, reduce on the CPU."""
    rep = ExperimentReport(
        experiment="Ablation — per-phase compute devices",
        paper_claim="§II: 'map and reduce tasks can be executed on CPUs "
                    "or GPUs'")
    pts = workloads.km_points()
    app_factory = workloads.km_app_paper
    cluster = das4_cluster(nodes=2, gpu=True)
    cfg = JobConfig(chunk_size=CHUNK, storage="local")
    rows = []
    for label, overrides in [
            ("cpu/cpu", {}),
            ("gpu/gpu", {"device": DeviceKind.GPU}),
            ("gpu/cpu", {"map_device": DeviceKind.GPU,
                         "reduce_device": DeviceKind.CPU}),
    ]:
        res = run_glasswing(app_factory(), pts, cluster,
                            cfg.with_(**overrides))
        rows.append((label, res.map_time, res.reduce_time, res.job_time))
    rep.tables.append(_two_row_table(
        "KM with per-phase device choices",
        ("map/reduce", "map_s", "reduce_s", "job_s"), rows))
    cpu_cpu, gpu_gpu, gpu_cpu = rows
    rep.check("GPU map phase beats CPU map phase",
              gpu_cpu[1] < 0.5 * cpu_cpu[1])
    rep.check("mixed-device job close to all-GPU (KM's reduce is tiny)",
              gpu_cpu[3] < 1.5 * gpu_gpu[3],
              f"gpu/cpu {gpu_cpu[3]:.3f}s vs gpu/gpu {gpu_gpu[3]:.3f}s")
    return rep
