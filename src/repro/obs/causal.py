"""Causal wait-graph profiling over the span timeline.

Every blocking primitive in the stack records a typed
:class:`~repro.simt.trace.WaitEdge` naming what it blocked on — buffer
slots (``buffer-slot``), inter-stage queues (``queue``), NIC/fabric
contention (``shuffle-link``), service admission (``admission``), the
heterogeneous device-pool gate (``pool-gate``), coordinator elections
(``membership``) and cache-aside misses (``cache-miss``).  This module
joins those edges back onto their owning spans so each span decomposes
*exactly* into self-time plus per-class wait-time:

* :func:`match_waits` — assign every edge to the span it belongs to
  (stable identity = ``(category, name, op-token, job)``; ties broken
  by request time);
* :func:`verify_decomposition` — the property-tested invariant: no
  orphan edges, no overlapping edges within one span, every span's
  pre-span gap (``t_req`` → ``start``) tiled by its edges, and
  ``self + Σ wait == elapsed`` within tolerance (0 unattributed time);
* :func:`causal_profile` — the ``glasswing-causal/1`` document: per
  (stage, wait-class, resource) seconds, split into leaf *stages* and
  roll-up *aggregates* (job/phase envelopes, which must not shadow the
  stage-level causes in a diff).

Span time convention: an instrumented span may carry ``meta["t_req"]``,
the instant the operation *requested* its first resource (default: the
span start).  Elapsed time is ``end - t_req``; edges live inside
``[t_req, end]``; the gap ``[t_req, start]`` is pure wait and must be
tiled exactly by pre-edges.  All recording is bookkeeping between
simulation events, so capture is invisible to virtual time.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, List, Optional, Tuple

from repro.simt.trace import Span, Timeline, WaitEdge

__all__ = ["WAIT_CLASSES", "match_waits", "verify_decomposition",
           "causal_profile", "span_request_time", "is_aggregate_category"]

#: the closed wait-class vocabulary (``self`` is a diff pseudo-class)
WAIT_CLASSES = ("buffer-slot", "queue", "shuffle-link", "admission",
                "pool-gate", "membership", "cache-miss")

_TOL = 1e-9


def span_request_time(span: Span) -> float:
    """The instant the span's operation started blocking (see module
    docstring); clamped so a malformed ``t_req`` never exceeds start."""
    t_req = span.meta.get("t_req", span.start)
    if not isinstance(t_req, (int, float)):
        return span.start
    return min(float(t_req), span.start)


def is_aggregate_category(category: str) -> bool:
    """Roll-up categories whose elapsed time *contains* other spans.

    Job/phase envelopes (``phase.map``, ``map.elapsed``, ``svc.job``,
    DAG round markers) re-cover the same seconds the stage spans already
    account for; a diff must rank causes over leaf stages only, or the
    envelope's self-time would always dominate.
    """
    return (category.endswith(".elapsed")
            or category.startswith("phase.")
            or category.startswith("dag.")
            or category in ("svc.job", "job"))


def _identity(category: str, name: str, meta: Dict[str, Any]) -> Tuple:
    return (category, name, meta.get("op"), meta.get("job"))


def match_waits(timeline: Timeline,
                tol: float = _TOL) -> Tuple[List[List[WaitEdge]], List[str]]:
    """Assign every wait edge to its owning span.

    Returns ``(assignments, errors)`` where ``assignments[i]`` lists the
    edges of ``timeline.spans[i]`` and ``errors`` collects orphan edges
    (no span of matching identity covers them).  Within one identity
    group an edge belongs to the span with the greatest request time not
    after the edge's start — concurrent same-identity operations must
    disambiguate with an ``op`` meta token (the network, cache, gate and
    barrier instrumentation do; pipeline stages are sequential per
    pipeline and carry the pipeline's token).
    """
    spans = timeline.spans
    # Only an identity some edge names can own one: index those spans,
    # not all of them (a storm has 35x more spans than edges).
    by_key: Dict[Tuple, List[Tuple[float, int]]] = {
        _identity(e.category, e.name, e.meta): [] for e in timeline.waits}
    if by_key:
        for i, span in enumerate(spans):
            entries = by_key.get(_identity(span.category, span.name, span.meta))
            if entries is not None:
                entries.append((span_request_time(span), i))
    for entries in by_key.values():
        entries.sort()
    assignments: List[List[WaitEdge]] = [[] for _ in spans]
    errors: List[str] = []
    for edge in timeline.waits:
        entries = by_key[_identity(edge.category, edge.name, edge.meta)]
        owner: Optional[int] = None
        # the last request time <= the edge's start (no index is len(spans))
        pos = bisect_right(entries, (edge.start + tol, len(spans))) - 1
        # Walk back over spans the edge cannot fit in (it must end
        # inside its owner, up to tolerance).
        while pos >= 0:
            idx = entries[pos][1]
            if edge.end <= spans[idx].end + tol:
                owner = idx
                break
            pos -= 1
        if owner is None:
            errors.append(
                f"orphan wait edge {edge.wait_class}/{edge.resource} "
                f"[{edge.start:.9f}, {edge.end:.9f}] with no owning span "
                f"{edge.category}/{edge.name}")
            continue
        assignments[owner].append(edge)
    return assignments, errors


def verify_decomposition(timeline: Timeline,
                         tol: float = _TOL) -> Dict[str, Any]:
    """Check the wait decomposition invariant over a whole timeline.

    Raises :class:`ValueError` listing every violation; on success
    returns a summary (span/edge counts, per-class seconds and the
    worst residual seen).  Invariants:

    1. no orphan edges — every recorded wait belongs to a span;
    2. every edge lies inside its span's ``[t_req, end]`` window;
    3. a span's edges do not overlap one another (no double counting);
    4. the pre-span gap ``[t_req, start]`` is tiled exactly;
    5. ``self = elapsed - Σ wait`` is non-negative (within ``tol``);
    6. meta cross-checks: ``net.transfer`` spans' ``tx/fabric/rx`` wait
       metas equal their matched shuffle-link edge seconds.
    """
    assignments, problems = match_waits(timeline, tol=tol)
    total_wait = 0.0
    by_class: Dict[str, float] = {}
    max_residual = 0.0
    n_edges = 0
    for span, edges in zip(timeline.spans, assignments):
        if not edges and "t_req" not in span.meta:
            continue
        req = span_request_time(span)
        elapsed = span.end - req
        edges = sorted(edges, key=lambda e: (e.start, e.end))
        wait = 0.0
        prev_end = None
        pre_gap_covered = 0.0
        for edge in edges:
            n_edges += 1
            wait += edge.duration
            by_class[edge.wait_class] = (by_class.get(edge.wait_class, 0.0)
                                         + edge.duration)
            if edge.start < req - tol or edge.end > span.end + tol:
                problems.append(
                    f"edge {edge.wait_class}/{edge.resource} "
                    f"[{edge.start:.9f}, {edge.end:.9f}] outside span "
                    f"{span.category}/{span.name} "
                    f"[{req:.9f}, {span.end:.9f}]")
            if prev_end is not None and edge.start < prev_end - tol:
                problems.append(
                    f"overlapping edges on span {span.category}/{span.name} "
                    f"at {edge.start:.9f} (previous ends {prev_end:.9f})")
            prev_end = max(prev_end, edge.end) if prev_end is not None \
                else edge.end
            lo = max(edge.start, req)
            hi = min(edge.end, span.start)
            if hi > lo:
                pre_gap_covered += hi - lo
        pre_gap = span.start - req
        residual = abs(pre_gap - pre_gap_covered)
        if pre_gap > tol and residual > tol:
            problems.append(
                f"pre-span gap of {span.category}/{span.name} at "
                f"{req:.9f} is {pre_gap:.9f}s but edges tile "
                f"{pre_gap_covered:.9f}s (unattributed wait)")
        self_time = elapsed - wait
        if self_time < -tol:
            problems.append(
                f"span {span.category}/{span.name} "
                f"[{req:.9f}, {span.end:.9f}]: waits sum to {wait:.9f}s "
                f"but elapsed is only {elapsed:.9f}s")
        max_residual = max(max_residual, residual,
                           max(0.0, -self_time))
        if span.category == "net.transfer":
            meta_wait = (span.meta.get("tx_wait", 0.0)
                         + span.meta.get("fabric_wait", 0.0)
                         + span.meta.get("rx_wait", 0.0))
            if abs(meta_wait - wait) > tol:
                problems.append(
                    f"net.transfer {span.name} meta waits {meta_wait:.9f}s "
                    f"!= matched edges {wait:.9f}s")
        total_wait += wait
    if problems:
        shown = "\n  ".join(problems[:20])
        more = f"\n  ... and {len(problems) - 20} more" \
            if len(problems) > 20 else ""
        raise ValueError(
            f"wait decomposition violated ({len(problems)} problems):\n"
            f"  {shown}{more}")
    return {
        "spans": len(timeline.spans),
        "edges_matched": n_edges,
        "wait_seconds": total_wait,
        "by_class": dict(sorted(by_class.items())),
        "max_residual": max_residual,
    }


def causal_profile(timeline: Timeline, elapsed_s: Optional[float] = None,
                   tol: float = _TOL) -> Dict[str, Any]:
    """The ``glasswing-causal/1`` profile: per-stage self/wait seconds.

    ``stages`` holds leaf categories (diffable causes); ``aggregates``
    holds roll-up envelopes (kept for context, excluded from cause
    ranking — see :func:`is_aggregate_category`).  ``tree`` groups the
    stage totals hierarchically by job label for multi-tenant traces.
    """
    assignments, errors = match_waits(timeline, tol=tol)
    stages: Dict[str, Dict[str, Any]] = {}
    aggregates: Dict[str, Dict[str, Any]] = {}
    tree: Dict[str, Dict[str, Dict[str, float]]] = {}
    total_self = 0.0
    total_wait = 0.0
    for span, edges in zip(timeline.spans, assignments):
        category = span.category
        entry = stages.get(category) or aggregates.get(category)
        if entry is None:       # first span of its category: file it once
            bucket = aggregates if is_aggregate_category(category) else stages
            entry = bucket[category] = {
                "count": 0, "elapsed_s": 0.0, "self_s": 0.0, "wait_s": 0.0,
                "waits": {},
            }
        req = span_request_time(span)
        elapsed = span.end - req
        wait = sum(e.duration for e in edges) if edges else 0
        self_time = max(0.0, elapsed - wait)
        entry["count"] += 1
        entry["elapsed_s"] += elapsed
        entry["self_s"] += self_time
        entry["wait_s"] += wait
        for edge in edges:
            cls = entry["waits"].setdefault(edge.wait_class, {
                "seconds": 0.0, "count": 0, "resources": {},
            })
            cls["seconds"] += edge.duration
            cls["count"] += 1
            cls["resources"][edge.resource] = (
                cls["resources"].get(edge.resource, 0.0) + edge.duration)
        if category in stages:
            total_self += self_time
            total_wait += wait
            by_job = tree.setdefault(str(span.meta.get("job", "-")), {})
            node = by_job.get(category)
            if node is None:
                node = by_job[category] = {
                    "self_s": 0.0, "wait_s": 0.0, "count": 0}
            node["self_s"] += self_time
            node["wait_s"] += wait
            node["count"] += 1
    wait_classes: Dict[str, float] = {}
    for entry in stages.values():
        for cls, info in entry["waits"].items():
            wait_classes[cls] = wait_classes.get(cls, 0.0) + info["seconds"]
    return {
        "schema": "glasswing-causal/1",
        "elapsed_s": elapsed_s,
        "self_s": total_self,
        "wait_s": total_wait,
        "wait_classes": dict(sorted(wait_classes.items())),
        "stages": {k: stages[k] for k in sorted(stages)},
        "aggregates": {k: aggregates[k] for k in sorted(aggregates)},
        "tree": {j: {c: tree[j][c] for c in sorted(tree[j])}
                 for j in sorted(tree)},
        "orphan_edges": len(errors),
    }
