"""``python -m perf --selftest``: does the benchmark convict a slow layer?

From the benchmark side, one layer's public function is wrapped with a
fixed busy-wait — ``KVSchema.size_of`` (per pair sized), then
``Network.send`` (per call) — and two reduced-size workloads are measured
with and without it, rep by rep in rotation.  For each injection the
self-test asserts that

* that layer's replay metric convicts it and the other layer's does not;
* ``wall_s`` of the workload that stresses the layer moves;
* ``wall_s`` of the workload that bypasses it does not;

and, for every run, that no wrapper survives the traced pass, that no
operation failed, and that tracing costs at most 25 % on the event-bound
workload.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

from perf import harness, layers, spec
from perf.tracer import Patcher

__all__ = ["selftest"]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: injected busy-waits: per pair sized, and per Network.send call
_PER_PAIR_S = 0.5e-6
_PER_SEND_S = 100e-6

_DATAPATH, _EVENTS = "wc-datapath", "shuffle-storm"
#: untraced reps per condition
_ROUNDS = 4


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _slow_size_of(patcher: Patcher) -> None:
    from repro.storage.records import KVSchema

    def wrap(fn):
        def size_of(schema, pairs):
            if hasattr(pairs, "__len__"):
                _spin(len(pairs) * _PER_PAIR_S)
            return fn(schema, pairs)
        return size_of
    patcher.method(KVSchema, "size_of", wrap)


def _slow_send(patcher: Patcher) -> None:
    import repro.core  # noqa: F401  (before repro.net: circular import)
    from repro.net.transport import Network

    def wrap(fn):
        def send(*args, **kwargs):
            _spin(_PER_SEND_S)
            return fn(*args, **kwargs)
        return send
    patcher.method(Network, "send", wrap)


def _wrappers_left() -> List[str]:
    """Public callables that still carry a tracer wrapper."""
    from repro.core import map_phase
    from repro.net.transport import Network
    from repro.simt.core import Simulator
    from repro.simt.trace import Timeline
    from repro.storage.records import KVSchema
    suspects = {
        "Simulator.step": Simulator.step, "Network.send": Network.send,
        "KVSchema.size_of": KVSchema.size_of,
        "Timeline.record": Timeline.record,
        "map_phase.collect_map_output": map_phase.collect_map_output,
    }
    return [name for name, fn in suspects.items()
            if hasattr(fn, "__wrapped__")]


@contextmanager
def _injected(inject: Optional[Callable[[Patcher], None]]):
    patcher = Patcher()
    if inject is not None:
        inject(patcher)
    try:
        yield
    finally:
        patcher.restore()


def _measure(name: str, conditions: Dict[str, Optional[Callable]],
             base_trace_seconds: Optional[float] = None) -> Dict[str, Any]:
    """One reduced-size set-up of ``name``; every condition (no injection,
    or one busy-wait) measured on it, rep by rep in rotation — the machine
    drifts by tens of per cent within seconds, and a condition measured in
    a block of its own would inherit whatever the machine did just then."""
    prepared, _ = harness.measure_setup(name, 0, "small", budget_s=0.0)
    verifier = harness.Verifier(prepared)
    env = harness.environment()
    harness.timed_reps(prepared, verifier, None, 1)         # warm-up
    walls: Dict[str, List[float]] = {label: [] for label in conditions}
    for _ in range(_ROUNDS):
        for label, inject in conditions.items():
            with _injected(inject):
                walls[label] += [r.wall.seconds for r in harness.timed_reps(
                    prepared, verifier, None, 1)]
    per_layer = {}
    for label, inject in conditions.items():
        with _injected(inject):
            last, traced, untraced = layers.traced_pass(
                prepared, verifier,
                base_trace_seconds if inject is None else None)
            per_layer[label] = layers.layer_metrics(
                prepared, last, traced, untraced, harness.GcMeter(), env, 0)
    return {"wall_s": {label: statistics.median(v)
                       for label, v in walls.items()},
            "per_layer": per_layer, "attempted": verifier.attempted,
            "failed": verifier.failed, "wrappers_left": _wrappers_left()}


def selftest() -> int:
    checks: List[tuple] = []

    def check(what: str, ok: bool, detail: str = "") -> None:
        checks.append((what, ok))
        print(f"  {'ok  ' if ok else 'FAIL'} {what}"
              + (f"  ({detail})" if detail else ""), flush=True)

    started = time.perf_counter()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    check("BENCHMARK.json and perf.spec name the same workloads and metrics",
          [w["name"] for w in contract["workloads"]] == list(spec.WORKLOADS)
          and {m["name"]: m["unit"] for m in contract["end_to_end"]}
          == {n: m.unit for n, m in spec.END_TO_END.items()}
          and {m["name"]: m["unit"] for m in contract["per_layer"]}
          == {n: m.unit for n, m in spec.PER_LAYER.items()})

    conditions = {"base": None, "KVSchema.size_of": _slow_size_of,
                  "Network.send": _slow_send}
    # trace.overhead_ratio is a ratio of two medians; the event-bound
    # baseline traces longer so that each has half a dozen samples.
    runs = {_DATAPATH: _measure(_DATAPATH, conditions),
            _EVENTS: _measure(_EVENTS, conditions, base_trace_seconds=8.0)}
    for name, res in runs.items():
        check(f"{name}: no failed operation", res["failed"] == 0,
              f"{res['attempted']} attempted")
        check(f"{name}: every wrapper removed after the traced passes",
              not res["wrappers_left"], ", ".join(res["wrappers_left"]))
    ratio = runs[_EVENTS]["per_layer"]["base"]["trace.overhead_ratio"]
    check(f"{_EVENTS}: trace.overhead_ratio <= 1.25", ratio <= 1.25,
          f"{ratio:.3f}")

    verdicts = (
        ("KVSchema.size_of", "records.replay_ns_per_pair",
         "net.replay_us_per_send", _DATAPATH, _EVENTS),
        ("Network.send", "net.replay_us_per_send",
         "records.replay_ns_per_pair", _EVENTS, _DATAPATH),
    )
    for target, guilty, innocent, stressed, bypass in verdicts:
        print(f"busy-wait injected into {target}")
        before = runs[stressed]["per_layer"]["base"]
        after = runs[stressed]["per_layer"][target]
        check(f"{guilty} convicts it on {stressed}",
              after[guilty] >= 3.0 * before[guilty],
              f"{before[guilty]:.4g} -> {after[guilty]:.4g}")
        check(f"{innocent} does not on {stressed}",
              after[innocent] <= 2.0 * before[innocent],
              f"{before[innocent]:.4g} -> {after[innocent]:.4g}")
        moved = _wall_change(runs[stressed], target)
        check(f"wall_s moves on {stressed}", moved >= 0.40,
              f"{100 * moved:+.0f}%")
        stayed = _wall_change(runs[bypass], target)
        check(f"wall_s does not move on {bypass}", stayed <= 0.25,
              f"{100 * stayed:+.0f}%")

    failed = [what for what, ok in checks if not ok]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed in "
          f"{time.perf_counter() - started:.0f} s")
    return 1 if failed else 0


def _wall_change(run: Dict[str, Any], condition: str) -> float:
    return run["wall_s"][condition] / run["wall_s"]["base"] - 1.0
