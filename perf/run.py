"""One workload, start to finish: set-up, warm-up, timed reps, traced pass."""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from perf import harness, layers, spec

__all__ = ["run_workload", "print_workload"]


def run_workload(name: str, seed: int, seconds: Optional[float],
                 reps: Optional[int], trace: str,
                 trace_out: Optional[str] = None) -> Dict[str, Any]:
    """Set up, warm up, measure and verify one workload in this process."""
    if reps is None and seconds is None:
        reps = 7
    env = harness.environment()
    prepared, setup_times = harness.measure_setup(name, seed)

    # Warm-up: one rep run exactly as the timed ones are, not timed.  Peak
    # RSS is read right after it and *before* any reference is computed:
    # run_reference would set the high-water mark itself (wc-datapath is
    # at 200 MB after set-up, 578 MB after the reference), and the metric
    # would be blind to the simulator.
    with harness.GcMeter() as gc_meter, harness.own_heap_frozen():
        warm = harness.run_rep(prepared)
    peak_rss = harness.peak_rss_mb()
    verifier = harness.Verifier(prepared)
    verifier.check(warm.result)
    sim_elapsed = prepared.sim_elapsed(warm.result)
    sim_digest = verifier.sim_digest(warm.result)
    warm = None

    out: Dict[str, Any] = {
        "workload": name, "seed": seed, "env": env,
        "verify_s": verifier.verify_s,
    }
    if trace in ("0", "both"):
        done = harness.timed_reps(prepared, verifier, seconds, reps)
        out["end_to_end"] = {
            "wall_s": harness.summarize([r.wall for r in done]),
            "run_report_s": harness.summarize([r.run_report for r in done]),
            "setup_s": harness.summarize(setup_times),
            "peak_rss_mb": harness.exact(peak_rss),
            "sim_elapsed_s": harness.exact(sim_elapsed),
        }
    if trace in ("1", "both"):
        last, traced, untraced = layers.traced_pass(
            prepared, verifier, seconds if reps is None else None)
        out["per_layer"] = layers.layer_metrics(
            prepared, last, traced, untraced, gc_meter, env, sim_digest)
        if trace_out:
            os.makedirs(os.path.dirname(os.path.abspath(trace_out)),
                        exist_ok=True)
            with open(trace_out, "w", encoding="utf-8") as fh:
                json.dump(last[0].to_json(), fh)
    out["attempted"] = verifier.attempted
    out["failed"] = verifier.failed
    out["failures"] = verifier.failures
    return out


#: host timings, reported speed-normalised (see perf.harness)
_NORMALISED = ("wall_s", "run_report_s", "setup_s")


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1:
        return f"{int(value):>14,d}"
    return f"{value:>14.6g}"


def print_workload(res: Dict[str, Any]) -> None:
    """Every metric by name, with its unit and its clock."""
    env = res["env"]
    print(f"== {res['workload']}  (seed {res['seed']}, nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}, "
          f"calib {env['host.calib_s']:.4f} s, "
          f"load {env['host.loadavg1']:.2f})")
    if env["noisy"]:
        print("   NOISY: 1-min load average exceeds nproc; host timings "
              "are suspect")
    print(f"   why: {spec.WORKLOADS[res['workload']]}")
    for name, s in res.get("end_to_end", {}).items():
        meta = spec.END_TO_END[name]
        line = (f"   {name:<32}{_fmt(s['value'])} {meta.unit:<6}"
                f"[{meta.clock}]")
        if name in _NORMALISED:
            line += (f"  median of n={s['n']}  q1 {s['q1']:.4g}  "
                     f"q3 {s['q3']:.4g}  min {s['min']:.4g}  "
                     f"(raw median {s['raw']:.4g})")
        print(line)
    if "end_to_end" in res:
        print(f"   {'verify_s':<32}{_fmt(res['verify_s'])} {'s':<6}[host]  "
              f"reference computation, informational")
    for name, value in res.get("per_layer", {}).items():
        meta = spec.PER_LAYER[name]
        print(f"   {name:<32}{_fmt(value)} {meta.unit:<6}[{meta.clock}]")
    print(f"   operations: {res['attempted']} attempted, "
          f"{res['failed']} failed")
    for why in res["failures"]:
        print(f"   FAILED {why}")
