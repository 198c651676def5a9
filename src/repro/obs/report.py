"""Pipeline analysis and the structured job report.

Three layers of digestion over the raw span timeline:

* :class:`PipelineReport` — one phase on one node: per-stage
  utilization (occupied/elapsed), the overlap factor (stage sum over
  elapsed — the paper's "elapsed converges to the dominant stage"
  claim is exactly ``overlap_factor > 1``), the dominant stage, and a
  **critical-path walk** over the five-stage dependency chain that
  attributes every elapsed second to the deepest stage active at that
  instant — or to *buffer-wait* when the interlock left all five idle.
* :func:`aggregate_counters` — the monotonic byte/slot/wait counters
  the pipeline, merger and network record as span meta.
* :func:`build_job_report` — the JSON document behind
  :meth:`GlasswingResult.to_report`, unifying stats, breakdowns,
  fault/recovery metrics and counters.
"""

from __future__ import annotations

import dataclasses
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple

from repro.core.metrics import STAGES as PIPELINE_STAGES
from repro.obs.causal import causal_profile
from repro.simt.trace import Timeline

__all__ = ["PIPELINE_STAGES", "PipelineReport", "aggregate_counters",
           "build_job_report"]

_EPS = 1e-12


class PipelineReport:
    """Utilization/overlap/critical-path analysis of one pipeline phase.

    ``node=None`` resolves to the *critical node*: the instance whose
    ``{phase}.elapsed`` span ends last, i.e. the one that gated the
    phase's completion — per-node analysis of any other node answers
    "why was this node slow", the critical node answers "why was the
    job slow".
    """

    def __init__(self, timeline: Timeline, phase: str = "map",
                 node: Optional[str] = None, telemetry: Any = None):
        self.timeline = timeline
        self.phase = phase
        self.node = node if node is not None else self._critical_node()
        # Sampled metrics, when the job ran with a live Telemetry hub —
        # enables the saturation analysis below.
        self.telemetry = (telemetry if telemetry is not None
                          else getattr(timeline, "telemetry", None))

    # -- node resolution ---------------------------------------------------
    def _critical_node(self) -> Optional[str]:
        spans = self.timeline.by_category(f"{self.phase}.elapsed")
        if not spans:
            return None
        return max(spans, key=lambda s: (s.end, s.name)).name

    def _window(self) -> Optional[Tuple[float, float]]:
        """``(start, end)`` of the phase on the analysed node, if it ran."""
        spans = self.timeline.by_category(f"{self.phase}.elapsed", self.node)
        if not spans:
            return None
        return (min(s.start for s in spans), max(s.end for s in spans))

    # -- basic stage numbers -----------------------------------------------
    @property
    def elapsed(self) -> float:
        """Wall-clock extent of the phase on the analysed node."""
        return self.timeline.span_extent(f"{self.phase}.elapsed",
                                         name=self.node)

    def occupied(self, stage: str) -> float:
        """Active (union) time of one stage on the analysed node."""
        return self.timeline.occupied_time(f"{self.phase}.{stage}",
                                           name=self.node)

    def stage_occupied(self) -> Dict[str, float]:
        """Stage -> active time for the analysed node."""
        return {stage: self.occupied(stage) for stage in PIPELINE_STAGES}

    def utilization(self) -> Dict[str, float]:
        """Stage -> occupied/elapsed (the per-stage duty cycle)."""
        return _derived(self.elapsed, self.stage_occupied())["utilization"]

    @property
    def overlap_factor(self) -> float:
        """Sum of stage active times over elapsed; > 1 means the stages
        genuinely ran concurrently (the §III-D buffering payoff)."""
        return _derived(self.elapsed,
                        self.stage_occupied())["overlap_factor"]

    @property
    def dominant_stage(self) -> Optional[str]:
        """The stage with the largest active time (``None`` when idle)."""
        return _derived(self.elapsed,
                        self.stage_occupied())["dominant_stage"]

    # -- critical path -----------------------------------------------------
    def critical_path(self) -> Dict[str, float]:
        """Attribute the phase's elapsed time along the dependency chain.

        Walks backwards from the phase end: at every instant the elapsed
        second is charged to the *deepest* pipeline stage active then
        (the output stage gates completion ahead of retrieve, retrieve
        ahead of kernel, …); instants where no stage is active are
        buffer-wait — the §III-D interlock (or queue starvation) holding
        every stage idle.  The returned attribution sums to ``elapsed``.
        """
        return self._critical_path_of(self._window())

    def _critical_path_of(self, window: Optional[Tuple[float, float]]
                          ) -> Dict[str, float]:
        attribution = {stage: 0.0 for stage in PIPELINE_STAGES}
        attribution["wait"] = 0.0
        if window is None:
            return attribution
        t0, t1 = window
        spans: List[Tuple[float, float, int]] = []
        for rank, stage in enumerate(PIPELINE_STAGES):
            for s in self.timeline.by_category(f"{self.phase}.{stage}",
                                               self.node):
                if s.duration > 0:
                    spans.append((s.start, s.end, rank))
        t = t1
        while t > t0 + _EPS:
            covering = [sp for sp in spans if sp[0] < t - _EPS and sp[1] >= t - _EPS]
            if covering:
                start, _end, rank = max(covering, key=lambda sp: sp[2])
                lo = max(start, t0)
                attribution[PIPELINE_STAGES[rank]] += t - lo
                t = lo
            else:
                prev = max((sp[1] for sp in spans if sp[1] < t - _EPS),
                           default=t0)
                prev = max(prev, t0)
                attribution["wait"] += t - prev
                t = prev
        return attribution

    # -- sampled-telemetry analysis ----------------------------------------
    def saturation(self) -> List[Dict[str, Any]]:
        """Capacity-bearing gauges relevant to this phase/node, ranked by
        mean fill level over the phase window.

        A gauge participates when it declared a ``capacity`` and its
        labels do not contradict the analysed phase and node (label
        absent counts as matching, so cluster-wide gauges rank against
        pipeline-local ones).  ``level`` is value/capacity, averaged
        over the sampler ticks falling inside the phase window.
        """
        return self._saturation_of(self._window())

    def _saturation_of(self, window: Optional[Tuple[float, float]]
                       ) -> List[Dict[str, Any]]:
        tele = self.telemetry
        if tele is None:
            return []
        t0, t1 = window or (float("-inf"), float("inf"))
        out: List[Dict[str, Any]] = []
        for metric in tele.registry.sorted_metrics():
            capacity = getattr(metric, "capacity", None)
            if metric.kind != "gauge" or not capacity:
                continue
            labels = metric.label_dict
            if labels.get("phase", self.phase) != self.phase:
                continue
            if self.node is not None and labels.get("node",
                                                    self.node) != self.node:
                continue
            levels = [v / capacity for t, v in tele.points(metric)
                      if t0 <= t <= t1]
            if not levels:
                continue
            out.append({
                "series": metric.series(),
                "capacity": capacity,
                "mean_level": sum(levels) / len(levels),
                "peak_level": max(levels),
                "samples": len(levels),
            })
        out.sort(key=lambda e: (-e["mean_level"], e["series"]))
        return out

    def saturated_resource(self,
                           threshold: float = 0.5) -> Optional[Dict[str, Any]]:
        """The hottest capacity-bearing gauge of the phase, when its mean
        fill level crosses ``threshold`` (``None`` otherwise — nothing
        the sampler watched was meaningfully saturated)."""
        return _hottest_of(self.saturation(), threshold)

    # -- scheduling --------------------------------------------------------
    def placement(self) -> Optional[Dict[str, Any]]:
        """Scheduler placement summary for this phase: the policy, a
        per-node placement histogram, the locality hit rate and any
        device-pool split.  ``None`` when the job predates (or ran
        without) the scheduling layer's ``sched.place`` spans.

        The map phase owns the recovery and speculative placements too —
        they are map work, wherever the policy put it.
        """
        wanted = (("map", "recovery", "speculative")
                  if self.phase == "map" else (self.phase,))
        spans = [s for s in self.timeline.by_category("sched.place")
                 if s.meta.get("phase") in wanted]
        if not spans:
            return None
        by_node: Dict[str, int] = {}
        by_device: Dict[str, int] = {}
        hits = misses = 0
        for span in spans:
            weight = span.meta.get("partitions", 1)
            by_node[span.name] = by_node.get(span.name, 0) + weight
            device = span.meta.get("device")
            if device is not None:
                by_device[device] = by_device.get(device, 0) + weight
            local = span.meta.get("local")
            if local is True:
                hits += 1
            elif local is False:
                misses += 1
        return {
            "policy": spans[0].meta.get("policy"),
            "placements": sum(by_node.values()),
            "by_node": dict(sorted(by_node.items())),
            "by_device": dict(sorted(by_device.items())) or None,
            "locality_hits": hits,
            "locality_misses": misses,
            "locality_hit_rate": (hits / (hits + misses)
                                  if hits + misses else None),
        }

    # -- rendering ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable summary of the analysis, each part read once."""
        window = self._window()
        elapsed = window[1] - window[0] if window else 0.0
        occupied = self.stage_occupied()
        saturation = self._saturation_of(window)
        return {
            "phase": self.phase,
            "node": self.node,
            "elapsed": elapsed,
            "occupied": occupied,
            **_derived(elapsed, occupied),
            "critical_path": self._critical_path_of(window),
            "saturation": saturation,
            "saturated_resource": _hottest_of(saturation),
            "placement": self.placement(),
        }

    def explain(self) -> str:
        """Human-readable dominant-stage analysis (the CLI's --explain)."""
        report = self.to_dict()
        elapsed = report["elapsed"]
        lines = [f"{self.phase} pipeline — critical node "
                 f"{self.node or '(none)'}"]
        if elapsed <= 0:
            lines.append("  (no activity recorded for this phase)")
            return "\n".join(lines)
        occupied = report["occupied"]
        util = report["utilization"]
        dominant = report["dominant_stage"]
        lines.append(f"  elapsed           {elapsed:.4f} s")
        lines.append(f"  overlap factor    {report['overlap_factor']:.2f}x "
                     f"(stage sum {sum(occupied.values()):.4f} s)")
        if dominant is not None:
            lines.append(f"  dominant stage    {dominant} — occupied "
                         f"{occupied[dominant]:.4f} s, "
                         f"{100 * util[dominant]:.0f}% utilization")
        lines.append("  stage utilization "
                     + "  ".join(f"{s} {100 * util[s]:.0f}%"
                                 for s in PIPELINE_STAGES))
        parts = sorted(((v, k) for k, v in report["critical_path"].items()
                        if v > 0), reverse=True)
        lines.append("  critical path     "
                     + ", ".join(f"{'buffer-wait' if k == 'wait' else k} "
                                 f"{100 * v / elapsed:.1f}%"
                                 for v, k in parts))
        if self.telemetry is not None:
            hot = report["saturated_resource"]
            if hot is not None:
                lines.append(f"  saturated         {hot['series']} — mean "
                             f"{100 * hot['mean_level']:.0f}% of capacity, "
                             f"peak {100 * hot['peak_level']:.0f}%")
            else:
                lines.append("  saturated         (no sampled resource above "
                             "50% of capacity)")
        placement = report["placement"]
        if placement is not None:
            rate = placement["locality_hit_rate"]
            locality = (f", locality {100 * rate:.0f}% "
                        f"({placement['locality_hits']}/"
                        f"{placement['locality_hits'] + placement['locality_misses']} local)"
                        if rate is not None else "")
            counts = placement["by_node"].values()
            spread = (f"{min(counts)}-{max(counts)} per node"
                      if counts else "none")
            lines.append(f"  placement         {placement['policy']}: "
                         f"{placement['placements']} ops, {spread}{locality}")
            if placement["by_device"]:
                lines.append("  device pool       "
                             + "  ".join(f"{d} {n}" for d, n in
                                         placement["by_device"].items()))
        return "\n".join(lines)


def _derived(elapsed: float, occupied: Dict[str, float]) -> Dict[str, Any]:
    """What follows from a phase's length and its stage -> occupied map,
    under the keys :meth:`PipelineReport.to_dict` gives them."""
    idle = elapsed <= 0
    return {
        "utilization": {stage: 0.0 if idle else occ / elapsed
                        for stage, occ in occupied.items()},
        "overlap_factor": 0.0 if idle else sum(occupied.values()) / elapsed,
        "dominant_stage": (max(occupied, key=lambda s: occupied[s])
                           if any(occupied.values()) else None),
    }


def _hottest_of(ranked: List[Dict[str, Any]],
                threshold: float = 0.5) -> Optional[Dict[str, Any]]:
    if ranked and ranked[0]["mean_level"] >= threshold:
        return ranked[0]
    return None


def aggregate_counters(timeline: Timeline) -> Dict[str, Any]:
    """Roll the span-meta counters up into job-level monotonic totals."""
    counters: Dict[str, Any] = {
        "bytes_read": 0, "bytes_staged": 0, "bytes_retrieved": 0,
        "bytes_output": 0, "bytes_shuffled": 0, "bytes_spilled": 0,
        "transfers": 0, "slots_acquired": 0, "slots_released": 0,
        "slots_leaked": 0, "queue_wait_seconds": 0.0,
        "slot_wait_seconds": 0.0, "net_wait_seconds": 0.0,
    }
    for span in timeline.spans:
        meta = span.meta
        if span.category == "net.transfer":
            counters["bytes_shuffled"] += meta.get("bytes", 0)
            counters["transfers"] += 1
            counters["net_wait_seconds"] += (meta.get("tx_wait", 0.0)
                                             + meta.get("fabric_wait", 0.0)
                                             + meta.get("rx_wait", 0.0))
            continue
        if span.category in ("merge.flush", "merge.compact"):
            counters["bytes_spilled"] += meta.get("bytes", 0)
            continue
        stage = span.category.rpartition(".")[2]
        if stage == "elapsed":
            counters["slots_acquired"] += meta.get("slots_acquired", 0)
            counters["slots_released"] += meta.get("slots_released", 0)
            counters["slots_leaked"] += meta.get("slots_leaked", 0)
        elif stage == "input":
            counters["bytes_read"] += meta.get("bytes", 0)
        elif stage == "stage":
            counters["bytes_staged"] += meta.get("bytes", 0)
        elif stage == "retrieve":
            counters["bytes_retrieved"] += meta.get("bytes", 0)
        elif stage == "output":
            counters["bytes_output"] += meta.get("bytes", 0)
        counters["queue_wait_seconds"] += meta.get("queue_wait", 0.0)
        counters["slot_wait_seconds"] += meta.get("slot_wait", 0.0)
    return counters


def _json_safe(value: Any) -> Any:
    """Recursively clamp a value to JSON-encodable types."""
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_json_safe(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _json_safe(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    return repr(value)


def build_job_report(result) -> Dict[str, Any]:
    """The structured job report (``GlasswingResult.to_report``).

    ``result`` is duck-typed (a :class:`~repro.core.engine.GlasswingResult`)
    to keep this module free of engine imports.
    """
    timeline = result.timeline
    metrics = result.metrics
    telemetry = getattr(result, "telemetry", None)
    phases = {}
    for phase in ("map", "reduce"):
        phases[phase] = PipelineReport(timeline, phase=phase,
                                       telemetry=telemetry).to_dict()
    telemetry_section = None
    if telemetry is not None:
        telemetry_section = {
            "interval_s": telemetry.interval,
            "ticks": len(telemetry.ticks),
            "series": len(telemetry.registry),
            "final": telemetry.final_values(),
        }
    return {
        "schema": "glasswing-report/1",
        "app": result.app_name,
        "nodes": result.n_nodes,
        "times": {
            "job": result.job_time,
            "map": result.map_time,
            "merge_delay": result.merge_delay,
            "reduce": result.reduce_time,
        },
        "config": _json_safe(result.config),
        "stats": _json_safe(result.stats),
        "phases": phases,
        "breakdowns": {
            "map": metrics.breakdown("map"),
            "reduce": metrics.breakdown("reduce"),
        },
        "faults": {
            "node_crashes": metrics.node_crashes,
            "reexecutions": metrics.reexecutions,
            "wasted_seconds": metrics.wasted_seconds,
            "recovery_seconds": metrics.recovery_time,
            "speculative_launches": metrics.speculative_launches,
            "speculative_wins": metrics.speculative_wins,
        },
        "counters": aggregate_counters(timeline),
        "causal": causal_profile(timeline, elapsed_s=result.job_time),
        "telemetry": telemetry_section,
        "scheduling": {
            "policy": result.stats.get("scheduler"),
            "placements": result.stats.get("sched_placements"),
            "locality_hits": result.stats.get("sched_locality_hits"),
            "locality_misses": result.stats.get("sched_locality_misses"),
            "locality_hit_rate": result.stats.get("sched_locality_hit_rate"),
            "map": phases["map"].get("placement"),
            "reduce": phases["reduce"].get("placement"),
        },
    }
