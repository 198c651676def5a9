"""Figure 5: reduce-pipeline efficiency vs concurrent keys.

"Glasswing provides applications with the capability to process multiple
intermediate keys concurrently in the same reduce kernel ... An
optimization on top of that is to additionally save on kernel invocation
overhead by having each kernel thread process multiple keys sequentially.
... Setting the number of concurrent keys to one causes (at least) one
kernel invocation per key, with very little value data per reduce
invocation."

WordCount with a key-rich data set (the paper uses millions of unique
words; the scaled corpus has tens of thousands) on one node.
"""

from __future__ import annotations

from typing import Tuple

from repro.apps import WordCountApp
from repro.core import JobConfig, run_glasswing
from repro.hw.presets import das4_cluster
from repro.hw.specs import KiB

from repro.bench import workloads
from repro.bench.harness import ExperimentReport, Table

__all__ = ["report", "KEY_SWEEP"]

CHUNK = 256 * KiB
#: (concurrent_keys, keys_per_thread) pairs swept, as the paper varies
#: both the parallel width and the sequential amortisation; one node,
#: already smoke-sized, so a quick run sweeps the same
KEY_SWEEP: Tuple[Tuple[int, int], ...] = (
    (1, 1), (16, 1), (16, 16), (256, 1), (4096, 1), (4096, 4),
)


def report(quick: bool = False) -> ExperimentReport:
    rep = ExperimentReport(
        experiment="Figure 5 — WC reduce pipeline vs concurrent keys",
        paper_claim="one key per launch pays a kernel invocation per key "
                    "with little work each; concurrent keys amortise the "
                    "overhead and fill the device; keys-per-thread "
                    "amortises further")
    inputs = workloads.wc_input()
    table = Table("reduce pipeline vs (concurrent keys, keys/thread)",
                  ("concurrent_keys", "keys_per_thread", "reduce_kernel_s",
                   "reduce_elapsed_s"))
    kernel_times = []
    elapsed = []
    for ck, kpt in KEY_SWEEP:
        res = run_glasswing(
            WordCountApp(), inputs, das4_cluster(nodes=1),
            JobConfig(chunk_size=CHUNK, storage="local",
                      concurrent_keys=ck, keys_per_thread=kpt))
        k = res.metrics.stage_time("reduce", "kernel", "node0")
        kernel_times.append(k)
        elapsed.append(res.reduce_time)
        table.add_row(concurrent_keys=ck, keys_per_thread=kpt,
                      reduce_kernel_s=k, reduce_elapsed_s=res.reduce_time)
    rep.tables.append(table)
    by_key = {pair: k for pair, k in zip(KEY_SWEEP, kernel_times)}
    rep.check("one key per launch is far slower than full concurrency",
              kernel_times[0] > 10 * kernel_times[-1],
              f"{kernel_times[0]:.4f} vs {kernel_times[-1]:.4f}")
    rep.check("reduce kernel time non-increasing across the sweep",
              all(a >= b * 0.9 for a, b in zip(kernel_times,
                                               kernel_times[1:])),
              f"{['%.4f' % k for k in kernel_times]}")
    rep.check("keys-per-thread amortises launches at fixed concurrency",
              by_key[(16, 16)] < 0.5 * by_key[(16, 1)],
              f"(16,1) {by_key[(16, 1)]:.4f} -> (16,16) "
              f"{by_key[(16, 16)]:.4f}")
    rep.check("reduce elapsed follows the kernel improvement",
              elapsed[-1] < elapsed[0])
    return rep
