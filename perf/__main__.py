"""``python -m perf``: run the benchmark, compare two runs, or self-test.

    python -m perf                         all four workloads, every metric
    python -m perf --out perf_out/A.json   ... and keep the numbers
    python -m perf --compare A.json B.json per-workload regression table
    python -m perf --selftest              the benchmark checks itself

    python -m perf --workload W --seed N --seconds T --trace 0|1
        one workload for the benchmark driver: the last line of stdout is
        one JSON object {correct, attempted, failed, metrics}; --trace 0
        prints the end-to-end metrics, --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The program under test lives in src/ and is not installed.
sys.path.insert(0, os.path.join(ROOT, "src"))

from perf import spec  # noqa: E402  (needs the path above)
from perf.run import print_workload, run_workload  # noqa: E402


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="python -m perf", description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=list(spec.WORKLOADS),
                   help="run one workload in this process (default: all "
                        "four, each in a fresh child process)")
    p.add_argument("--seed", type=int, default=0,
                   help="input seed; 0 reproduces the inputs of the repo's "
                        "own benches (default 0, hold-out 1)")
    p.add_argument("--reps", type=int, default=None,
                   help="timed reps per workload (default 7, or as many as "
                        "fit when --seconds is given)")
    p.add_argument("--seconds", type=float, default=None,
                   help="measure each workload for this long instead of a "
                        "fixed number of reps")
    p.add_argument("--trace", choices=("0", "1", "both"), default="both",
                   help="0: end-to-end metrics, tracing off; 1: per-layer "
                        "metrics from the traced pass; both (default)")
    p.add_argument("--trace-out", metavar="FILE",
                   help="write the traced pass's aggregates and spans "
                        "(with --workload)")
    p.add_argument("--out", metavar="FILE",
                   help="write every number as JSON (input of --compare)")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                   help="relative change of B against A per workload and "
                        "end-to-end metric; exit 1 on a regression")
    p.add_argument("--selftest", action="store_true",
                   help="inject a slowdown into one layer and check the "
                        "benchmark convicts it (< 60 s)")
    return p.parse_args(argv)


def _driver_line(res: Dict[str, Any], trace: str) -> str:
    """The one JSON object the benchmark driver reads."""
    if trace == "0":
        metrics = {name: {"value": s["value"],
                          "unit": spec.END_TO_END[name].unit}
                   for name, s in res["end_to_end"].items()}
    else:
        metrics = {name: {"value": value,
                          "unit": spec.PER_LAYER[name].unit}
                   for name, value in res["per_layer"].items()}
    return json.dumps({"correct": res["failed"] == 0,
                       "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


# --------------------------------------------------------------- all workloads
def run_all(seed: int, reps: Optional[int], seconds: Optional[float]
            ) -> Dict[str, Any]:
    """Each workload in a fresh child process, so that ``peak_rss_mb`` is
    per workload and no workload inherits another's heap."""
    results: Dict[str, Any] = {}
    for name in spec.WORKLOADS:
        cmd = [sys.executable, "-m", "perf", "--workload", name,
               "--seed", str(seed), "--trace", "both"]
        if reps is not None:
            cmd += ["--reps", str(reps)]
        if seconds is not None:
            cmd += ["--seconds", str(seconds)]
        print(f"-- running {name} ...", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        *report, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(report), flush=True)
        if proc.returncode != 0:
            raise SystemExit(f"{name}: child exited {proc.returncode}\n"
                             f"{last}")
        results[name] = json.loads(last)
    return results


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if args.compare:
        from perf.compare import compare
        return compare(*args.compare)
    if args.selftest:
        from perf.selftest import selftest
        return selftest()
    if args.workload:
        res = run_workload(args.workload, args.seed, args.seconds, args.reps,
                           args.trace, args.trace_out)
        print_workload(res)
        if args.out:
            _write(args.out, {args.workload: res})
        # Last line: the driver's object, or (--trace both) everything,
        # which is what the all-workloads parent collects.
        print(json.dumps(res) if args.trace == "both"
              else _driver_line(res, args.trace))
        return 0
    results = run_all(args.seed, args.reps, args.seconds)
    failed = sum(r["failed"] for r in results.values())
    attempted = sum(r["attempted"] for r in results.values())
    print(f"== total: {attempted} operations attempted, {failed} failed")
    if args.out:
        _write(args.out, results)
    return 0 if failed == 0 else 1


def _write(path: str, results: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": "perf-results/1", "workloads": results}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    sys.exit(main())
