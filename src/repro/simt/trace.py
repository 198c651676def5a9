"""Span-based tracing of simulated activity.

The paper instruments each pipeline stage with timers (Tables II and III,
Figures 4 and 5 are all per-stage time breakdowns).  We reproduce that via
a :class:`Timeline` that records ``Span(category, name, start, end, meta)``
intervals in virtual time and can aggregate busy time per category; a
query reads a :class:`GroupedLog` of the spans, so it costs its own group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = ["Span", "WaitEdge", "GroupedLog", "Timeline", "TimelineFork"]


@dataclass(frozen=True)
class Span:
    """A closed interval of activity on the virtual clock."""

    category: str  # e.g. "map.kernel", "map.partition", "merge"
    name: str      # instance label, e.g. node id or chunk id
    start: float
    end: float
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class WaitEdge:
    """A typed blocking interval: who waited, on what, and for how long.

    ``wait_class`` is one of the small closed vocabulary the causal
    profiler aggregates over (``buffer-slot``, ``queue``, ``shuffle-link``,
    ``admission``, ``pool-gate``, ``membership``, ``cache-miss``);
    ``resource`` names the concrete instance blocked on (a pool, a store,
    a NIC, an election).  ``category``/``name`` identify the *owning*
    span — the operation whose elapsed time this wait is part of — so
    every span decomposes into self-time plus its edges' durations.
    """

    wait_class: str
    resource: str
    category: str
    name: str
    start: float
    end: float
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class GroupedLog:
    """A lazily built ``key -> group`` view of an append-only list.

    It counts the entries it has absorbed and, when asked, hands the tail
    to ``absorb(entries, groups)``, which files them in recording order.
    So appending costs nothing and needs no hook; in return the log may
    only grow at its end — no entry removed, reordered or replaced (one
    found *shorter* than what was absorbed is regrouped from scratch).
    """

    def __init__(self, absorb: Callable[[Sequence[Any], Dict], None]) -> None:
        self._absorb = absorb
        self._groups: Dict[Any, Any] = {}
        self._absorbed = 0

    def groups(self, log: List[Any]) -> Dict[Any, Any]:
        """The groups of ``log``, brought up to date.  Live: do not mutate."""
        n = len(log)
        if n < self._absorbed:
            self._groups, self._absorbed = {}, 0
        if n > self._absorbed:
            self._absorb(log[self._absorbed:n], self._groups)
            self._absorbed = n
        return self._groups


def _file_spans(spans: Sequence[Span], groups: Dict) -> None:
    """``category -> spans`` and ``(category, name) -> spans``."""
    for span in spans:
        groups.setdefault(span.category, []).append(span)
        groups.setdefault((span.category, span.name), []).append(span)


class Timeline:
    """Accumulates spans and computes per-category statistics; ``spans``
    and ``waits`` are append-only (see :class:`GroupedLog`)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.waits: List[WaitEdge] = []
        self._index = GroupedLog(_file_spans)
        #: optional live-metrics hub (:class:`repro.obs.telemetry.Telemetry`).
        #: Every instrumented layer already carries the timeline, so the
        #: engine enables continuous sampling by setting this one slot; the
        #: type stays ``Any`` so simt keeps zero dependencies on obs.
        self.telemetry: Optional[Any] = None

    def record(self, category: str, name: str, start: float, end: float,
               **meta: Any) -> Span:
        """Add a span; ``end`` must not precede ``start``."""
        if end < start:
            raise ValueError(f"span ends before it starts: {start} .. {end}")
        span = Span(category, name, start, end, meta)
        self.spans.append(span)
        return span

    def record_wait(self, wait_class: str, resource: str, category: str,
                    name: str, start: float, end: float,
                    **meta: Any) -> Optional[WaitEdge]:
        """Add a wait edge owned by span ``(category, name)``.

        Zero- and negative-length waits are dropped (the caller blocked
        for no virtual time, so there is nothing to attribute).  When
        :meth:`_wait_hub` names a telemetry hub, the wait also feeds its
        ``glasswing_wait_seconds`` counter labelled by class.
        """
        if end - start <= 0.0:
            return None
        edge = WaitEdge(wait_class, resource, category, name, start, end, meta)
        self.waits.append(edge)
        tele = self._wait_hub()
        if tele is not None:
            tele.counter(
                "glasswing_wait_seconds",
                help="virtual seconds blocked, by wait class",
                **{"class": wait_class}).inc(edge.duration)
        return edge

    def _wait_hub(self) -> Optional[Any]:
        """The telemetry hub that counts this timeline's waits."""
        return self.telemetry

    def _group(self, category: str,
               name: Optional[str] = None) -> Sequence[Span]:
        """The index's own list, in recording order: read, do not mutate."""
        key = category if name is None else (category, name)
        return self._index.groups(self.spans).get(key, ())

    def by_category(self, category: str,
                    name: Optional[str] = None) -> List[Span]:
        """Spans whose category (and instance) match exactly; a fresh list."""
        return list(self._group(category, name))

    def categories(self) -> List[str]:
        """Sorted list of distinct categories."""
        return sorted(key for key in self._index.groups(self.spans)
                      if isinstance(key, str))

    def busy_time(self, category: str, name: Optional[str] = None) -> float:
        """Sum of span durations in ``category`` (optionally one instance).

        This counts *work* time; overlapping spans (parallel workers) count
        multiply.  Use :meth:`span_extent` for wall-clock extent.
        """
        return sum(s.duration for s in self._group(category, name))

    def span_extent(self, category: str, name: Optional[str] = None) -> float:
        """Wall-clock extent: latest end minus earliest start in category."""
        sel = self._group(category, name)
        if not sel:
            return 0.0
        return max(s.end for s in sel) - min(s.start for s in sel)

    def occupied_time(self, category: str, name: Optional[str] = None) -> float:
        """Union length of the category's spans (overlap counted once).

        This is the number the paper's per-stage tables report: how long
        the stage was *active*, regardless of how many worker threads it
        used.
        """
        sel = sorted((s.start, s.end) for s in self._group(category, name))
        total = 0.0
        cur_start: Optional[float] = None
        cur_end = 0.0
        for start, end in sel:
            if cur_start is None:
                cur_start, cur_end = start, end
            elif start <= cur_end:
                cur_end = max(cur_end, end)
            else:
                total += cur_end - cur_start
                cur_start, cur_end = start, end
        if cur_start is not None:
            total += cur_end - cur_start
        return total

    def fork(self, label: str) -> "TimelineFork":
        """A per-tenant view of this timeline (see :class:`TimelineFork`)."""
        return TimelineFork(self, label)

    def __len__(self) -> int:
        return len(self.spans)


class TimelineFork(Timeline):
    """A per-tenant view onto a shared session timeline.

    A multi-job session renders one merged trace, but each job also needs
    a private timeline for its own metrics and report.  Spans recorded on
    a fork are kept locally *and* forwarded to the parent, tagged with
    ``job=<label>`` so trace viewers can group rows per job.

    The fork deliberately does **not** inherit the parent's telemetry
    hub: instruments carried by per-job components must not re-register
    session-level gauges for every admitted job (same metric labels would
    collide); session-wide sampling keeps running off the parent.
    """

    def __init__(self, parent: Timeline, label: str) -> None:
        super().__init__()
        self.parent = parent
        self.label = label

    def record(self, category: str, name: str, start: float, end: float,
               **meta: Any) -> Span:
        meta.setdefault("job", self.label)
        span = super().record(category, name, start, end, **meta)
        self.parent.spans.append(span)
        return span

    def record_wait(self, wait_class: str, resource: str, category: str,
                    name: str, start: float, end: float,
                    **meta: Any) -> Optional[WaitEdge]:
        meta.setdefault("job", self.label)
        edge = super().record_wait(wait_class, resource, category, name,
                                   start, end, **meta)
        if edge is not None:
            self.parent.waits.append(edge)
        return edge

    def _wait_hub(self) -> Optional[Any]:
        # The fork has no hub of its own (see the class docstring), so its
        # waits feed the session-level wait counter through the parent.
        if self.telemetry is not None:
            return self.telemetry
        return self.parent.telemetry
