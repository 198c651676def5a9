#!/usr/bin/env python3
"""Fault tolerance end to end (§III-E).

Walks the full fault model on a 4-node wordcount: map-task crashes with
re-execution, a whole-node crash with the shuffle-recovery wave, and a
straggler raced by a speculative duplicate.  Every run's output is
verified identical to the fault-free reference — the headline guarantee.

    python examples/fault_tolerance.py
"""

from repro.apps import WordCountApp
from repro.apps.datagen import wiki_text
from repro.baselines.reference import canonical_output, run_reference
from repro.core import JobConfig, run_glasswing
from repro.core.faults import FaultPlan, NodeCrash
from repro.hw.presets import das4_cluster

APP = WordCountApp()
INPUTS = {"corpus": wiki_text(2 * 1024 * 1024, seed=29)}
CONFIG = JobConfig(chunk_size=128 * 1024, input_replication=4)


def run(faults=None, config=CONFIG):
    return run_glasswing(APP, INPUTS, das4_cluster(nodes=4), config,
                         faults=faults)


def verify(result, reference) -> None:
    assert canonical_output(list(result.output_pairs())) == reference
    print("    output identical to the fault-free reference.")


def main() -> None:
    reference = run_reference(APP, INPUTS)
    clean = run()
    print(f"clean run: {clean.job_time:.4f} simulated seconds")

    # -- 1. map-task crashes + re-execution -----------------------------
    failed = run(faults=FaultPlan(map_failures={0: 1, 3: 1, 7: 3},
                                  progress_at_failure=0.6))
    print(f"\n[1] {failed.stats['task_failures']} map-task crashes: "
          f"{failed.job_time:.4f} s "
          f"(+{failed.job_time - clean.job_time:.4f} s, "
          f"{failed.metrics.wasted_seconds:.4f} s of kernel work discarded)")
    for f in failed.timeline.by_category("map.task_failure"):
        print(f"    crash: split {f.meta['split']} attempt "
              f"{f.meta['attempt']} on {f.name} at t={f.end:.4f}")
    verify(failed, reference)

    # -- 2. node crash + shuffle recovery --------------------------------
    plan = FaultPlan(node_crashes=(NodeCrash(node=2,
                                             at=clean.map_time / 2),))
    crashed = run(faults=plan)
    m = crashed.metrics
    print(f"\n[2] node 2 dies mid-map: {crashed.job_time:.4f} s "
          f"({crashed.job_time / clean.job_time:.2f}x clean)")
    print(f"    survivors re-pushed {crashed.stats['repushed_runs']} durable "
          f"runs and re-executed {crashed.stats['reexecuted_splits']} splits "
          f"in a {m.recovery_time:.4f} s recovery wave")
    verify(crashed, reference)

    # -- 3. straggler + speculative duplicate ----------------------------
    straggler = lambda: FaultPlan(stragglers={5: 8.0})
    slow = run(faults=straggler())
    spec = run(faults=straggler(),
               config=CONFIG.with_(speculative_execution=True))
    m = spec.metrics
    print(f"\n[3] split 5 straggles 8x: {slow.job_time:.4f} s; with "
          f"speculation {spec.job_time:.4f} s "
          f"({m.speculative_wins}/{m.speculative_launches} races won, "
          f"{m.wasted_seconds:.4f} s wasted on losing copies)")
    verify(spec, reference)


if __name__ == "__main__":
    main()
