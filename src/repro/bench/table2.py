"""Table II: WordCount map-pipeline time breakdown.

Four configurations on one Type-1 node, local FS (the paper uses a
smaller data set "to emphasize the performance differences"):

* (i)   hash-table collector + combiner, double buffering;
* (ii)  hash-table collector, no combiner, double buffering;
* (iii) simple (buffer-pool) output collection, double buffering;
* (i-single) configuration (i) with single buffering.

Shape checks encode the paper's §IV-B.1 discussion: elapsed ~ dominant
stage and well below the stage sum for (i); kernel rises without the
combiner (compaction kernel) and partitioning rises with the volume;
config (iii) trades a cheaper kernel for dominant partitioning; single
buffering serialises the input group (elapsed ~ input + kernel) and
partitioning gets faster (less core contention).
"""

from __future__ import annotations

from typing import Dict

from repro.apps import WordCountApp
from repro.core import JobConfig, run_glasswing
from repro.hw.presets import das4_cluster
from repro.hw.specs import KiB

from repro.bench import workloads
from repro.bench.harness import ExperimentReport, Table

__all__ = ["report", "CONFIGS"]

CHUNK = 256 * KiB
#: scaled cache threshold so intermediate data spills and merges, as the
#: paper's 7 GB working set does against its in-memory cache
CACHE = 2 * 1024 * 1024

CONFIGS: Dict[str, JobConfig] = {
    "hash+combiner": JobConfig(chunk_size=CHUNK, storage="local",
                               collector="hash", use_combiner=True,
                               buffering=2, partitioner_threads=4,
                               cache_threshold=CACHE),
    "hash": JobConfig(chunk_size=CHUNK, storage="local",
                      collector="hash", use_combiner=False,
                      buffering=2, partitioner_threads=4,
                      cache_threshold=CACHE),
    "buffer": JobConfig(chunk_size=CHUNK, storage="local",
                        collector="buffer", use_combiner=False,
                        buffering=2, partitioner_threads=4,
                        cache_threshold=CACHE),
    "hash+combiner/single": JobConfig(chunk_size=CHUNK, storage="local",
                                      collector="hash", use_combiner=True,
                                      buffering=1, partitioner_threads=4,
                                      cache_threshold=CACHE),
}

ROWS = ("input", "kernel", "partitioning", "map_elapsed", "merge_delay",
        "reduce_time")


def report(quick: bool = False) -> ExperimentReport:
    rep = ExperimentReport(
        experiment="Table II — WC map pipeline time breakdown (1 node, "
                    "local FS)",
        paper_claim="elapsed ~ dominant stage << stage sum; no combiner "
                    "-> compaction kernel + larger partitioning/merge/"
                    "reduce; simple collection -> cheaper kernel but "
                    "partitioning dominates; single buffering -> elapsed "
                    "= input + kernel, faster partitioning")
    inputs = workloads.wc_input()
    table = Table("WC map pipeline breakdown (seconds)",
                  ("config",) + ROWS)
    results = {}
    for name, cfg in CONFIGS.items():
        res = run_glasswing(WordCountApp(), inputs, das4_cluster(nodes=1),
                            cfg)
        results[name] = res
        rep.attach_timeline(name, res.timeline)
        bd = res.metrics.breakdown("map", "node0")
        table.add_row(config=name, input=bd["input"], kernel=bd["kernel"],
                      partitioning=bd["output"], map_elapsed=res.map_time,
                      merge_delay=res.merge_delay,
                      reduce_time=res.reduce_time)
    rep.tables.append(table)

    r1, r2, r3 = results["hash+combiner"], results["hash"], results["buffer"]
    rs = results["hash+combiner/single"]
    bd1 = r1.metrics.breakdown("map", "node0")
    bd2 = r2.metrics.breakdown("map", "node0")
    bd3 = r3.metrics.breakdown("map", "node0")
    bds = rs.metrics.breakdown("map", "node0")

    stage_sum1 = sum(bd1.values())
    rep.check("(i) pipeline overlap: elapsed well below stage sum",
              r1.map_time < 0.8 * stage_sum1,
              f"elapsed {r1.map_time:.3f} vs sum {stage_sum1:.3f}")
    dominant1 = max(bd1.values())
    rep.check("(i) elapsed close to the dominant stage",
              r1.map_time <= 1.35 * dominant1,
              f"elapsed {r1.map_time:.3f} vs dominant {dominant1:.3f}")
    rep.check("(ii) kernel slightly up without combiner (compaction)",
              bd2["kernel"] > bd1["kernel"])
    rep.check("(ii) partitioning rises with intermediate volume",
              bd2["output"] > 1.3 * bd1["output"],
              f"{bd1['output']:.3f} -> {bd2['output']:.3f}")
    rep.check("(ii) merge delay and reduce grow without combiner",
              r2.merge_delay >= r1.merge_delay
              and r2.reduce_time > r1.reduce_time)
    rep.check("(iii) simple collection lowers kernel time",
              bd3["kernel"] < bd2["kernel"],
              f"{bd2['kernel']:.3f} -> {bd3['kernel']:.3f}")
    rep.check("(iii) partitioning becomes the dominant stage",
              bd3["output"] > bd3["kernel"]
              and bd3["output"] == max(bd3.values()),
              f"partitioning {bd3['output']:.3f} vs kernel {bd3['kernel']:.3f}")
    rep.check("(iii) elapsed time increases significantly",
              r3.map_time > 1.3 * r1.map_time,
              f"{r1.map_time:.3f} -> {r3.map_time:.3f}")
    rep.check("single buffering: elapsed ~ input + kernel",
              abs(rs.map_time - (bds["input"] + bds["kernel"]))
              <= 0.25 * rs.map_time,
              f"elapsed {rs.map_time:.3f} vs i+k "
              f"{bds['input'] + bds['kernel']:.3f}")
    rep.check("single buffering slower overall than double",
              rs.map_time > r1.map_time)
    return rep
