"""``python -m perf --compare A.json B.json``: did B get worse than A?

One row per workload and end-to-end metric — never a combined score.
The change is B's median against A's; the *bound* comes from
``BENCHMARK.json`` and the absolute *floor* from :mod:`perf.spec`:

* a difference under the floor is noise, whatever its ratio;
* where the run-to-run spread (the wider of the two sets' interquartile
  ranges, as a share of the median) exceeds the bound, the pairing is
  **unresolved** — not "unchanged";
* worse by more than the bound is a **REGRESSION**.

When both files were measured at the same seed, every exact count,
``sim_elapsed_s`` and ``sim_digest`` must also be *identical*: two runs of
one commit agree on all of them, and so must a change meant only to speed
the simulator up.  A regression, a number that should be identical and is
not, or a workload missing from either file makes the exit code 1.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

from perf import spec

__all__ = ["compare", "load_bounds"]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bounds() -> Dict[str, Dict[str, Any]]:
    """name -> {unit, better, bound} of every end-to-end metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def _load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema") != "perf-results/1":
        raise SystemExit(f"{path}: not a 'python -m perf --out' file")
    return payload["workloads"]


def _spread(summary: Dict[str, float]) -> float:
    return (summary["q3"] - summary["q1"]) / summary["value"]


def compare(path_a: str, path_b: str) -> int:
    a_all, b_all = _load(path_a), _load(path_b)
    bounds = load_bounds()
    regressions = differing = missing = 0
    print(f"{'workload':<16}{'metric':<15}{'A':>12}{'B':>12}{'change':>9}"
          f"{'bound':>7}{'spread':>8}  verdict")
    for workload in spec.WORKLOADS:
        a_run, b_run = a_all.get(workload, {}), b_all.get(workload, {})
        if "end_to_end" not in a_run or "end_to_end" not in b_run:
            print(f"{workload:<16}MISSING from one of the two files")
            missing += 1
            continue
        a_e2e, b_e2e = a_run["end_to_end"], b_run["end_to_end"]
        for name, meta in spec.END_TO_END.items():
            a, b = a_e2e[name], b_e2e[name]
            bound = bounds[name]["bound"]
            sign = 1.0 if bounds[name]["better"] == "lower" else -1.0
            worse = sign * (b["value"] - a["value"]) / a["value"]
            spread = max(_spread(a), _spread(b))
            if b["value"] == a["value"]:
                verdict = "ok (identical)"
            elif abs(b["value"] - a["value"]) <= meta.floor:
                verdict = "ok (under the floor)"
            elif spread > bound:
                verdict = "unresolved (spread exceeds the bound)"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok" if worse > -bound else "ok (better)"
            print(f"{workload:<16}{name:<15}{a['value']:>12.5g}"
                  f"{b['value']:>12.5g}{100 * worse:>+8.1f}%"
                  f"{100 * bound:>6.0f}%{100 * spread:>7.1f}%  {verdict}")
        exact = f"{workload:<16}exact counts, sim_elapsed_s, sim_digest: "
        if a_run["seed"] != b_run["seed"]:
            print(exact + f"not compared (seeds {a_run['seed']} and "
                  f"{b_run['seed']})")
            continue
        differ = _exact_differences(a_run, b_run)
        print(exact + ("identical" if not differ
                       else "DIFFER: " + ", ".join(differ)))
        differing += bool(differ)
    print(f"{regressions} regression(s), {differing} workload(s) whose exact "
          f"numbers differ, {missing} missing")
    return 1 if regressions or differing or missing else 0


def _exact_differences(a: Dict[str, Any], b: Dict[str, Any]) -> list:
    """Names of deterministic numbers that are not equal in both runs."""
    differ = []
    if a["end_to_end"]["sim_elapsed_s"]["value"] != \
            b["end_to_end"]["sim_elapsed_s"]["value"]:
        differ.append("sim_elapsed_s")
    a_layers, b_layers = a.get("per_layer", {}), b.get("per_layer", {})
    for name, meta in spec.PER_LAYER.items():
        if meta.clock == "n" and a_layers.get(name) != b_layers.get(name):
            differ.append(name)
    return differ
