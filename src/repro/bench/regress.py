"""Performance-regression gate over the committed bench baselines.

Every committed ``BENCH_<name>.json`` is one row of :data:`BASELINES` —
the file ``python -m repro.bench <name>`` writes, how to re-measure one of
its recorded points, and how far each *virtual* metric may drift — and
:func:`replay` is the one loop that re-runs a row's points and diffs
them.  Adding a baseline is adding a row.  ``scaling`` (the sweep) is
always replayed; ``service`` (the multi-job trace replay per arbiter),
``dag`` (the three DAG/iterative points) and ``elastic`` (cluster
doubling, halving, double coordinator failover) are skipped with a note
when their file is absent, so an older checkout still gates scaling.

Wall-clock fields are deliberately ignored — they measure the CI
machine, not the model.  Exit status is nonzero on any regression, so
CI can gate on ``python -m repro.bench.regress``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.costs import DEFAULT_HOST_COSTS, HostCosts
from repro.obs import explain_diff, render_diff, write_json

from repro.bench import dag, elastic, scaling, service

__all__ = ["Baseline", "BASELINES", "compare_point", "replay", "main"]

Point = Dict[str, Any]
#: re-run one recorded point under the given host cost model
Measure = Callable[[Point, HostCosts], Point]
#: metric -> (kind, tolerance); ``rel`` compares |new-old|/|old|,
#: ``abs`` compares |new-old|
Tolerances = Dict[str, Tuple[str, float]]

#: simulated times: the model is deterministic, so any drift is a code
#: change, but float noise from refactored arithmetic gets an allowance
_TIME = ("rel", 0.02)
#: byte and job counts never drift legitimately
_COUNT = ("rel", 0.0)
#: flags, leak audits, membership/recovery counters: flipping one is a
#: correctness bug, which the gate refuses like a slowdown
_EXACT = ("abs", 0.0)


@dataclass(frozen=True)
class Baseline:
    """One committed ``BENCH_<name>.json`` and how to replay it."""

    #: the row's name: ``python -m repro.bench <name>`` writes its file
    name: str
    #: key of the file's list of recorded points
    points_key: str
    measure: Measure
    #: gated on every point
    tolerances: Tolerances
    #: point ``app`` label -> metrics gated on that point only
    extra: Dict[str, Tolerances] = field(default_factory=dict)
    #: recorded point -> the ``app`` / ``nodes`` columns it is shown under
    label: Callable[[Point], Point] = (
        lambda p: {"app": p["app"], "nodes": p["nodes"]})

    @property
    def path(self) -> str:
        return f"BENCH_{self.name}.json"


def _labelled(dispatch: Callable[..., Point],
              points: Dict[str, Callable[..., Point]]) -> Measure:
    """``measure`` of a baseline whose points name their own function.

    Each point records its own shape (the keyword parameters of its
    function); seeds, cluster and scheduler are pinned in the bench.
    """
    def measure(recorded: Point, costs: HostCosts) -> Point:
        fn = points.get(recorded["app"])    # None: ``dispatch`` rejects it
        shape = inspect.signature(fn).parameters if fn else ()
        return dispatch(recorded["app"], costs=costs, **{
            key: recorded[key] for key in shape if key != "costs"})
    return measure


BASELINES: Dict[str, Baseline] = {row.name: row for row in (
    Baseline("scaling", "sweep",
             lambda p, costs: scaling.sweep_point(p["app"], p["nodes"],
                                                  costs=costs),
             # the map overlap factor is the §III-D pipelining payoff
             {"elapsed_s": _TIME, "network_bytes": _COUNT,
              "overlap_factor": ("abs", 0.05)}),
    # each point records its trace shape, so the replay regenerates the
    # identical arrival trace; the ``nodes`` column shows the job count
    Baseline("service", "points",
             lambda p, costs: service.service_point(
                 p["arbiter"], n_jobs=p["n_jobs"], seed=p["trace_seed"],
                 costs=costs),
             {"makespan_s": _TIME, "throughput_jobs_per_s": _TIME,
              "latency_p50_s": _TIME, "latency_p95_s": _TIME,
              "latency_p99_s": _TIME, "completed": _COUNT,
              "leaked_buffer_slots": _EXACT},
             label=lambda p: {"app": f"service:{p['arbiter']}",
                              "nodes": p["n_jobs"]}),
    # cache traffic drifting means the cross-round caching behaviour
    # changed; the k-means speedup is DAG vs naive re-submission
    Baseline("dag", "points", _labelled(dag.dag_point, dag.POINTS),
             {"elapsed_s": _TIME, "network_bytes": _COUNT,
              "cache_hit_bytes": _COUNT, "cache_miss_bytes": _COUNT},
             {"dag:kmeans": {"naive_elapsed_s": _TIME, "speedup": _TIME,
                             "identical_output": _EXACT},
              "dag:pagerank": {"max_abs_err": ("abs", 1e-12)},
              "dag:prefixsum": {"exact": _EXACT}}),
    # each point replays its own static run first (the chaos schedule's
    # event times derive from the measured static map extent), so the
    # comparison covers both runs
    Baseline("elastic", "points",
             _labelled(elastic.elastic_point, elastic.POINTS),
             {"elapsed_s": _TIME, "baseline_elapsed_s": _TIME,
              "network_bytes": _COUNT, "identical_output": _EXACT,
              "leaked_buffer_slots": _EXACT},
             {"elastic:double": {"speedup": _TIME, "joined": _EXACT},
              "elastic:halve": {"slowdown": _TIME, "departed": _EXACT,
                                "repushed_runs": _EXACT,
                                "reexecuted_splits": _EXACT},
              "elastic:failover": {"failovers": _EXACT,
                                   "overhead_s": ("abs", 1e-9)}}),
)}


def _metric_of(point: Point, metric: str) -> float:
    if metric == "overlap_factor":
        return point["map_pipeline"]["overlap_factor"]
    return point[metric]


def compare_point(baseline: Point, measured: Point,
                  tolerances: Tolerances) -> List[Dict[str, Any]]:
    """Diff one sweep point; returns one row per compared metric."""
    rows = []
    for metric, (kind, tol) in sorted(tolerances.items()):
        old = float(_metric_of(baseline, metric))
        new = float(_metric_of(measured, metric))
        delta = abs(new - old)
        if kind == "rel":
            deviation = delta / abs(old) if old else (0.0 if not delta
                                                      else float("inf"))
        else:
            deviation = delta
        rows.append({
            "app": baseline["app"],
            "nodes": baseline["nodes"],
            "metric": metric,
            "baseline": old,
            "measured": new,
            "deviation": deviation,
            "tolerance": tol,
            "kind": kind,
            "ok": deviation <= tol,
        })
    return rows


def replay(name: str, baseline_path: Optional[str] = None, *,
           tolerances: Optional[Tolerances] = None,
           costs: HostCosts = DEFAULT_HOST_COSTS,
           nodes: Optional[Sequence[int]] = None,
           cases: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """Re-run the recorded points of baseline ``name`` and diff them.

    ``baseline_path`` and ``tolerances`` default to the row's (per-point
    extras always apply on top).  ``nodes`` / ``cases`` select points by
    their recorded ``nodes`` / ``app``; a selection (or a file) without
    points raises rather than silently comparing nothing.
    """
    row = BASELINES[name]
    baseline_path = baseline_path or row.path
    with open(baseline_path, encoding="utf-8") as fh:
        points = json.load(fh)[row.points_key]
    selected = [p for p in points
                if (nodes is None or p.get("nodes") in nodes)
                and (cases is None or p.get("app") in cases)]
    if not selected:
        raise ValueError(f"no baseline points match nodes={nodes!r} "
                         f"cases={cases!r} in {baseline_path}")
    rows: List[Dict[str, Any]] = []
    explanations: List[Dict[str, Any]] = []
    for recorded in selected:
        measured = row.measure(recorded, costs)
        label = row.label(recorded)
        tols = {**(tolerances or row.tolerances),
                **row.extra.get(label["app"], {})}
        point_rows = compare_point({**recorded, **label}, measured, tols)
        rows.extend(point_rows)
        if not all(r["ok"] for r in point_rows):
            explanations.append(_explain_failure(recorded, measured, label))
    return {
        "baseline_path": baseline_path,
        "points": len(selected),
        "comparisons": rows,
        "failures": [r for r in rows if not r["ok"]],
        "explanations": explanations,
        "ok": all(r["ok"] for r in rows),
    }


def _explain_failure(recorded: Point, measured: Point,
                     label: Point) -> Dict[str, Any]:
    """Root-cause one drifted point: the gate prints *why*, not just a
    percentage.  A point recorded with a ``glasswing-causal/1`` profile
    gets :func:`repro.obs.diff.explain_diff`'s ranked (stage, wait-class,
    resource) causes; one recorded without gets a note instead.
    """
    entry: Dict[str, Any] = dict(label)
    if not isinstance(recorded.get("causal"), dict):
        entry["note"] = ("baseline point has no causal profile; regenerate "
                         "the baseline to enable root-cause explanations")
        return entry
    try:
        entry["diff"] = explain_diff(recorded, measured)
    except ValueError as exc:
        entry["note"] = f"explain-diff failed: {exc}"
    return entry


def _print_table(result: Dict[str, Any]) -> None:
    header = (f"{'app':<18} {'nodes':>5} {'metric':<21} {'baseline':>14} "
              f"{'measured':>14} {'deviation':>10} {'tol':>8}  verdict")
    print(header)
    print("-" * len(header))
    for r in result["comparisons"]:
        tol = (f"{r['tolerance']:.0%}" if r["kind"] == "rel"
               else f"{r['tolerance']:g}")
        dev = (f"{r['deviation']:.2%}" if r["kind"] == "rel"
               else f"{r['deviation']:.4f}")
        print(f"{r['app']:<18} {r['nodes']:>5} {r['metric']:<21} "
              f"{r['baseline']:>14.6g} {r['measured']:>14.6g} "
              f"{dev:>10} {tol:>8}  "
              f"{'ok' if r['ok'] else 'REGRESSION'}")
    verdict = "PASS" if result["ok"] else (
        f"FAIL ({len(result['failures'])} regression(s))")
    print(f"\n{result['points']} point(s) replayed against "
          f"{result['baseline_path']}: {verdict}")
    for entry in result["explanations"]:
        print(f"\nroot cause: {entry['app']} @ {entry['nodes']} node(s)")
        if "diff" in entry:
            print(render_diff(entry["diff"]))
        else:
            print(f"  ({entry['note']})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.regress",
        description="Replay the committed bench baselines and diff them "
                    "against their recorded points; exits 1 on regression.")
    parser.add_argument("--baseline", default=BASELINES["scaling"].path,
                        help="scaling baseline JSON (default: %(default)s)")
    parser.add_argument("--nodes", type=int, action="append", default=None,
                        help="cluster size to replay (repeatable; default: "
                             "the CI quick ladder)")
    parser.add_argument("--case", action="append", default=None,
                        dest="cases",
                        choices=["wordcount", "terasort", "wordcount-skew"],
                        help="app to replay (repeatable; default: all)")
    parser.add_argument("--full", action="store_true",
                        help="replay every node count the baseline records")
    parser.add_argument("--tol-elapsed", type=float, default=None,
                        metavar="REL", help="relative tolerance on elapsed_s")
    parser.add_argument("--tol-bytes", type=float, default=None,
                        metavar="REL",
                        help="relative tolerance on network_bytes")
    parser.add_argument("--tol-overlap", type=float, default=None,
                        metavar="ABS",
                        help="absolute tolerance on the map overlap factor")
    parser.add_argument("--json", "--json-out", metavar="FILE",
                        action="append", default=None, dest="json_out",
                        help="also write the result as JSON to FILE "
                             "(repeatable; CI uploads it on failure)")
    for name, row in BASELINES.items():
        if name == "scaling":       # --baseline above; always replayed
            continue
        parser.add_argument(
            f"--{name}-baseline", default=None, metavar="FILE",
            help=f"{name} baseline to gate (default: {row.path} if present)")
        parser.add_argument(f"--skip-{name}", action="store_true",
                            help=f"skip the {name} replay")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    tolerances = dict(BASELINES["scaling"].tolerances)
    if args.tol_elapsed is not None:
        tolerances["elapsed_s"] = ("rel", args.tol_elapsed)
    if args.tol_bytes is not None:
        tolerances["network_bytes"] = ("rel", args.tol_bytes)
    if args.tol_overlap is not None:
        tolerances["overlap_factor"] = ("abs", args.tol_overlap)
    nodes = None if args.full else (args.nodes or scaling.QUICK_NODES)
    results: Dict[str, Any] = {}
    for name, row in BASELINES.items():
        path, selection = getattr(args, f"{name}_baseline", None), {}
        if name == "scaling":       # the one that must exist
            path, selection = args.baseline, dict(
                nodes=nodes, cases=args.cases, tolerances=tolerances)
        elif getattr(args, f"skip_{name}"):
            continue
        elif path is None and not os.path.exists(row.path):
            print(f"(no {row.path}; {name} replay skipped)")
            continue
        try:
            result = replay(name, path, **selection)
        except (OSError, ValueError, KeyError) as exc:
            print(f"regress: {exc}", file=sys.stderr)
            return 2
        if results:
            print()
        _print_table(result)
        results[name] = result
    ok = all(result["ok"] for result in results.values())
    for path in args.json_out or ():
        write_json(path, {"ok": ok, **results})
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
