"""Chrome trace-event export of simulation timelines.

Converts a :class:`~repro.simt.trace.Timeline` into the Chrome
trace-event JSON format understood by ``chrome://tracing`` and Perfetto
(https://ui.perfetto.dev).  The mapping:

* every span *instance* (``node0``, ``node1``, ``job``, ``0->1`` …)
  becomes one **process row**, so a cluster run reads as one lane per
  node; spans tagged with a ``job=<label>`` meta (a multi-job service
  session, see :mod:`repro.service`) get **per-job rows** —
  ``wordcount:node0`` next to ``terasort:node0`` — so concurrent
  tenants read as separate lane groups over the same virtual clock;
* every span *category* (``map.input``, ``map.kernel``,
  ``reduce.output`` …) becomes a **thread row** within its process,
  ordered so the five pipeline stages appear in dependency order;
* every :class:`~repro.simt.trace.Span` becomes a complete (``"X"``)
  event whose ``args`` carry the span's meta counters (bytes, slot ids,
  queue waits, …);
* every delivered ``map.push`` span grows a **flow arrow** (``"s"`` /
  ``"f"`` event pair) to the receiving node's next merge span, so
  cross-node shuffle causality renders as arrows between lanes in the
  trace UI.

Virtual seconds are scaled to trace microseconds, the unit the trace
viewers expect.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Dict, List

from repro.simt.trace import Timeline

from repro.obs.telemetry import ensure_parent_dir

__all__ = ["chrome_trace_events", "to_chrome_trace", "write_chrome_trace"]

#: virtual seconds -> trace microseconds
TIME_SCALE = 1e6

#: pipeline stages in dependency order, used to sort thread rows so a
#: trace reads top-to-bottom like the paper's §III-A diagram
_STAGE_ORDER = ("elapsed", "input", "stage", "kernel", "retrieve", "output")


def _json_safe(value: Any) -> Any:
    """Clamp a meta value to something the JSON encoder accepts."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def _instance_name(span) -> str:
    """Process-row key: job-tagged spans get per-job rows."""
    job = span.meta.get("job")
    return f"{job}:{span.name}" if job else span.name


def _category_sort_key(category: str):
    """Order thread rows: phase prefix first, then pipeline-stage order."""
    prefix, _, stage = category.rpartition(".")
    try:
        rank = _STAGE_ORDER.index(stage)
    except ValueError:
        rank = len(_STAGE_ORDER)
    return (prefix, rank, stage)


def _flow_events(timeline: Timeline, pids: Dict[str, int],
                 tids: Dict[str, int]) -> List[Dict[str, Any]]:
    """Shuffle flow arrows: each delivered ``map.push`` span links to the
    receiving node's next merge span (``"s"`` start at the push, ``"f"``
    finish at the merge), so cross-node causality renders as arrows.

    The push span records its destination lane in ``meta["dst"]``; the
    receiver is the earliest ``merge.*`` span in that lane (same job tag,
    for multi-job sessions) starting at or after the push completes —
    falling back to the lane's last merge span, which is the finalize
    (``merge.delay``) covering the tail of the shuffle.
    """
    merges: Dict[str, List[Any]] = {}
    for span in timeline.spans:
        if span.category.startswith("merge."):
            merges.setdefault(_instance_name(span), []).append(span)
    for spans in merges.values():
        spans.sort(key=lambda s: (s.start, s.end))
    starts = {name: [s.start for s in spans]
              for name, spans in merges.items()}

    events: List[Dict[str, Any]] = []
    flow_id = 0
    for span in timeline.spans:
        if span.category != "map.push" or not span.meta.get("delivered"):
            continue
        dst = span.meta.get("dst")
        if not dst:
            continue
        job = span.meta.get("job")
        lane = f"{job}:{dst}" if job else dst
        candidates = merges.get(lane)
        if not candidates:
            continue
        i = bisect_left(starts[lane], span.end)
        target = candidates[i] if i < len(candidates) else candidates[-1]
        flow_id += 1
        common = {"name": "shuffle", "cat": "flow", "id": flow_id}
        events.append({**common, "ph": "s",
                       "ts": span.end * TIME_SCALE,
                       "pid": pids[_instance_name(span)],
                       "tid": tids[span.category]})
        events.append({**common, "ph": "f", "bp": "e",
                       "ts": max(target.start, span.end) * TIME_SCALE,
                       "pid": pids[lane],
                       "tid": tids[target.category]})
    return events


def chrome_trace_events(timeline: Timeline) -> List[Dict[str, Any]]:
    """The flat trace-event list for ``timeline`` (metadata + spans)."""
    instances = sorted({_instance_name(s) for s in timeline.spans})
    pids = {name: i + 1 for i, name in enumerate(instances)}
    categories = sorted({s.category for s in timeline.spans},
                        key=_category_sort_key)
    tids = {cat: i + 1 for i, cat in enumerate(categories)}

    events: List[Dict[str, Any]] = []
    for name, pid in pids.items():
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "args": {"name": name}})
    used = sorted({(_instance_name(s), s.category) for s in timeline.spans})
    for name, cat in used:
        pid, tid = pids[name], tids[cat]
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "args": {"name": cat}})
        events.append({"ph": "M", "name": "thread_sort_index", "pid": pid,
                       "tid": tid, "args": {"sort_index": tid}})
    for span in timeline.spans:
        events.append({
            "name": span.category,
            "cat": span.category.split(".", 1)[0],
            "ph": "X",
            "ts": span.start * TIME_SCALE,
            "dur": span.duration * TIME_SCALE,
            "pid": pids[_instance_name(span)],
            "tid": tids[span.category],
            "args": {k: _json_safe(v) for k, v in span.meta.items()},
        })
    events.extend(_flow_events(timeline, pids, tids))
    return events


def to_chrome_trace(timeline: Timeline) -> Dict[str, Any]:
    """The complete JSON-object trace (Perfetto-loadable)."""
    return {
        "traceEvents": chrome_trace_events(timeline),
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.chrome",
            "spans": len(timeline),
            "clock": "virtual seconds scaled x1e6 to trace microseconds",
        },
    }


def write_chrome_trace(timeline: Timeline, path: str) -> str:
    """Serialise the trace to ``path``; returns the path for chaining.

    Parent directories are created as needed and keys are emitted in
    sorted order, so two identical runs produce byte-identical traces.
    """
    ensure_parent_dir(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(timeline), fh, sort_keys=True)
    return path
