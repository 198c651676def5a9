"""Figure 4: analysis of intermediate data handling (N and P sweeps).

* 4(a) — map-pipeline stage times vs the partitioner thread count N:
  "With N = 1, the Partitioning stage is dominant; when that stage is
  parallelized, its time drops below the Kernel stage already from N = 2
  threads onwards."
* 4(b) — merge delay vs partitions-per-node P and N: "An increase in P
  leads to a sharp decrease in merge delay ... An increase in N causes an
  increase of the merge delay.  This effect is much smaller than that of
  P."

Both use WordCount on one node, as in the paper.  The N-vs-delay effect
appears when partitioning is CPU-heavy (the paper observes the merger
starvation in the config (iii) discussion), so 4(b)'s N sweep uses the
buffer-pool collector.
"""

from __future__ import annotations

from repro.apps import WordCountApp
from repro.core import JobConfig, run_glasswing
from repro.hw.presets import das4_cluster
from repro.hw.specs import KiB

from repro.bench import workloads
from repro.bench.harness import ExperimentReport, Table

__all__ = ["partitioning_report", "merge_delay_report", "N_SWEEP",
           "MERGE_P_SWEEP", "MERGE_N_SWEEP"]

CHUNK = 256 * KiB
CACHE = 2 * 1024 * 1024
#: 4(a)'s partitioner thread counts N; both panels are one-node sweeps
#: already smoke-sized, so a quick run sweeps the same
N_SWEEP = (1, 2, 4, 8, 16, 32)
#: 4(b)'s partition counts P (one curve each) and its N axis
MERGE_P_SWEEP = (1, 4, 16)
MERGE_N_SWEEP = (2, 8, 32)


def partitioning_report(quick: bool = False) -> ExperimentReport:
    """Figure 4(a): partitioning vs kernel stage as N grows."""
    rep = ExperimentReport(
        experiment="Figure 4(a) — map pipeline stages vs partitioner "
                    "threads N (WC, 1 node)",
        paper_claim="partitioning dominant at N=1, drops below the kernel "
                    "stage from N=2 onwards; kernel stage roughly constant")
    # 64 KiB chunks keep the per-chunk unique-key density (and hence the
    # decode+sort work) at the paper's partitioning/kernel balance; the
    # cache threshold is raised so background flushing does not pollute
    # the stage timings (Fig 4a isolates the partitioning stage).
    inputs = workloads.wc_input()
    table = Table("stage times vs N", ("N", "kernel_s", "partitioning_s",
                                       "map_elapsed_s"))
    kernel_times, part_times = [], []
    for n in N_SWEEP:
        res = run_glasswing(
            WordCountApp(), inputs, das4_cluster(nodes=1),
            JobConfig(chunk_size=CHUNK // 4, storage="local",
                      partitioner_threads=n, cache_threshold=1 << 30))
        k = res.metrics.stage_time("map", "kernel", "node0")
        p = res.metrics.stage_time("map", "output", "node0")
        kernel_times.append(k)
        part_times.append(p)
        table.add_row(N=n, kernel_s=k, partitioning_s=p,
                      map_elapsed_s=res.map_time)
    rep.tables.append(table)
    rep.check("partitioning dominant at N=1",
              part_times[0] > kernel_times[0],
              f"part {part_times[0]:.3f} vs kernel {kernel_times[0]:.3f}")
    rep.check("partitioning below kernel from N=2 onwards",
              all(p < k for p, k in zip(part_times[1:], kernel_times[1:])),
              f"parts {['%.3f' % p for p in part_times]}")
    rep.check("partitioning time monotonically non-increasing in N",
              all(a >= b * 0.95 for a, b in zip(part_times, part_times[1:])))
    rep.check("kernel stage roughly constant across the sweep",
              max(kernel_times) <= 1.5 * min(kernel_times))
    return rep


def merge_delay_report(quick: bool = False) -> ExperimentReport:
    """Figure 4(b): merge delay vs partitioner threads N, one curve per P.

    As in the paper's figure: the x-axis sweeps N and each curve is one
    partition count P.  The delay only materialises when the partitioner
    threads starve the mergers (large N) and more partitions dissolve it
    by parallelising the merge work.
    """
    rep = ExperimentReport(
        experiment="Figure 4(b) — merge delay vs partitioner threads N, "
                    "per partition count P (WC, 1 node)",
        paper_claim="P up -> merge delay sharply down (superlinear, the "
                    "mergers work during the map phase); N up -> merge "
                    "delay up (mergers starved of CPU)")
    # A smaller corpus keeps the (deliberately) merge-heavy sweep fast;
    # the buffer-pool collector provides the paper's heavy intermediate
    # volume.
    inputs = workloads.wc_input(8 * 1024 * 1024)
    delays: dict = {}
    table = Table("merge delay (s): rows = P, columns = N",
                  ("P",) + tuple(f"N={n}" for n in MERGE_N_SWEEP))
    for p in MERGE_P_SWEEP:
        row = {}
        for n in MERGE_N_SWEEP:
            res = run_glasswing(
                WordCountApp(), inputs, das4_cluster(nodes=1),
                JobConfig(chunk_size=CHUNK, storage="local",
                          partitions_per_node=p, partitioner_threads=n,
                          cache_threshold=CACHE, use_combiner=False,
                          collector="buffer"))
            delays[(p, n)] = res.merge_delay
            row[f"N={n}"] = res.merge_delay
        table.add_row(P=p, **row)
    rep.tables.append(table)

    n_min, n_max = MERGE_N_SWEEP[0], MERGE_N_SWEEP[-1]
    p_min, p_max = MERGE_P_SWEEP[0], MERGE_P_SWEEP[-1]
    rep.check("merge delay drops sharply with P at high N",
              delays[(p_max, n_max)] < 0.25 * delays[(p_min, n_max)],
              f"P={p_min}: {delays[(p_min, n_max)]:.3f} -> "
              f"P={p_max}: {delays[(p_max, n_max)]:.3f} (at N={n_max})")
    rep.check("merge delay grows with N at every P",
              all(delays[(p, n_max)] >= delays[(p, n_min)]
                  for p in MERGE_P_SWEEP))
    rep.check("the N=low column is (near) delay-free at every P "
              "(mergers keep up during the map phase)",
              all(delays[(p, n_min)] <= 0.1 * max(
                  delays[(p_min, n_max)], 1e-9) for p in MERGE_P_SWEEP))
    rep.check("enough partitions dissolve the delay even at N=32 "
              "(the paper's tuning recommendation)",
              delays[(p_max, n_max)] <= 0.15 * delays[(p_min, n_max)],
              f"{delays[(p_max, n_max)]:.4f}s at P={p_max}, N={n_max}")
    return rep
