"""Continuous telemetry: a metrics registry sampled in simulated time.

Post-hoc spans (:mod:`repro.simt.trace`) answer *how long did it take*;
this module answers *what was the system doing at second t* — the
time-varying queue depths, buffer occupancy and in-flight shuffle bytes
that determine which pipeline stage dominates (paper §3–4).  Three
pieces:

* a **registry** of :class:`Counter` / :class:`Gauge` / :class:`Histogram`
  metrics.  Gauges are probe-based: instrumented components register a
  zero-argument callable that reads live state (a ``Store``'s depth, a
  ``BufferPool``'s outstanding slots), so a disabled registry costs one
  ``None`` check and an enabled one costs nothing between samples;
* a **sampler process** that snapshots every metric each
  ``interval`` of *simulated* seconds.  It only reads state — it never
  acquires resources or creates shared timeouts — so enabling sampling
  cannot change job timing or byte counters (asserted by the
  differential tests);
* **exporters**: JSONL (one sample row per line) and OpenMetrics text,
  both byte-deterministic for identical runs, plus
  :func:`validate_openmetrics`, a self-contained format checker used by
  CI and the tests.

The registry is reached through ``Timeline.telemetry`` — every
instrumented layer already carries the timeline, so no signature
changes; ``simt`` itself stays dependency-free by exposing plain
``probe()`` state dicts that this module wraps into gauges.
"""

from __future__ import annotations

import json
import math
import os
import re
from itertools import accumulate, groupby
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "Telemetry",
    "DEFAULT_WAIT_BOUNDS", "ensure_parent_dir", "write_json",
    "render_series", "valid_interval",
    "write_metrics_jsonl", "write_openmetrics", "write_metrics",
    "openmetrics_text", "validate_openmetrics",
    "register_membership_gauges",
]

#: histogram bucket bounds for simulated-seconds wait distributions
DEFAULT_WAIT_BOUNDS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _fmt_value(value: Any) -> str:
    """Shortest-round-trip number rendering (deterministic across runs)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\"", "\\\"")
            .replace("\n", "\\n"))


def render_series(name: str, labels: LabelKey) -> str:
    """Canonical ``name{k="v",...}`` rendering of one series."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Metric:
    """Base: a named, labelled instrument registered once per series."""

    kind = "untyped"

    def __init__(self, name: str, labels: LabelKey, help: str = ""):
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for k, _v in labels:
            if not _LABEL_NAME_RE.match(k):
                raise ValueError(f"invalid label name {k!r}")
        self.name = name
        self.labels = labels
        self.help = help
        #: what every sample row of the series carries as ``row["labels"]``
        self._row_labels: Dict[str, str] = dict(labels)
        #: the series' column in its :class:`Telemetry` hub: ``_values[i]``
        #: is what :meth:`_snapshot` read at tick ``_first + i`` (``None``
        #: until the first tick after registration)
        self._first: Optional[int] = None
        self._values: List[Any] = []

    @property
    def label_dict(self) -> Dict[str, str]:
        return dict(self._row_labels)

    def _snapshot(self) -> Any:
        """What one tick stores for the series."""
        return self.value       # type: ignore[attr-defined]

    def series(self) -> str:
        return render_series(self.name, self.labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.series()}>"


class Counter(Metric):
    """Monotonically increasing total (e.g. cumulative shuffle bytes)."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey, help: str = ""):
        super().__init__(name, labels, help)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge(Metric):
    """Point-in-time level, either set directly or read from probes.

    A probe is a zero-argument callable returning the current value;
    multiple probes on one series sum (two sequential pipelines on the
    same node and phase contribute one combined depth).  ``capacity``
    optionally names the gauge's saturation ceiling, which the
    :class:`~repro.obs.report.PipelineReport` saturation analysis uses.
    """

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey, help: str = "",
                 capacity: Optional[float] = None):
        super().__init__(name, labels, help)
        self._value: float = 0
        self._probes: List[Callable[[], float]] = []
        self.capacity = capacity

    def set(self, value: float) -> None:
        self._value = value

    def add_probe(self, probe: Callable[[], float]) -> None:
        self._probes.append(probe)

    @property
    def value(self) -> float:
        probes = self._probes
        if len(probes) == 1:
            return 0 + probes[0]()      # what sum() of one gives, bool included
        return sum(p() for p in probes) if probes else self._value


class Histogram(Metric):
    """Cumulative-bucket distribution of observed values."""

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey, help: str = "",
                 bounds: Sequence[float] = DEFAULT_WAIT_BOUNDS):
        super().__init__(name, labels, help)
        bounds = tuple(float(b) for b in bounds)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = bounds
        self._les = tuple(_fmt_value(b) for b in bounds) + ("+Inf",)
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self._counts[i] += 1
                return
        self._counts[-1] += 1

    def cumulative_buckets(self) -> List[Tuple[str, int]]:
        """``(le, cumulative count)`` pairs ending with ``+Inf``."""
        return list(zip(self._les, accumulate(self._counts)))

    def _snapshot(self) -> Tuple[int, float, Tuple[int, ...]]:
        return self.count, self.sum, tuple(accumulate(self._counts))


class MetricsRegistry:
    """Holds every registered series; idempotent re-registration.

    Requesting an existing ``(name, labels)`` returns the same
    instrument (a gauge additionally absorbs the new probe), so
    components register unconditionally without coordinating.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], Metric] = {}
        self._kinds: Dict[str, str] = {}
        self._helps: Dict[str, str] = {}
        self._sorted: List[Metric] = []     # stale once shorter than _metrics

    def _register(self, name: str, labels: Dict[str, Any], kind: str,
                  help: str) -> Tuple[Optional[Metric], LabelKey]:
        if self._kinds.setdefault(name, kind) != kind:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{self._kinds[name]}, not {kind}")
        if help and not self._helps.get(name):
            self._helps[name] = help
        key = _label_key(labels)
        return self._metrics.get((name, key)), key

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        existing, key = self._register(name, labels, "counter", help)
        if existing is None:
            existing = self._metrics[(name, key)] = Counter(name, key, help)
        return existing  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "",
              probe: Optional[Callable[[], float]] = None,
              capacity: Optional[float] = None, **labels: Any) -> Gauge:
        existing, key = self._register(name, labels, "gauge", help)
        if existing is None:
            existing = self._metrics[(name, key)] = Gauge(
                name, key, help, capacity=capacity)
        gauge: Gauge = existing  # type: ignore[assignment]
        if probe is not None:
            gauge.add_probe(probe)
        if capacity is not None and gauge.capacity is None:
            gauge.capacity = capacity
        return gauge

    def histogram(self, name: str, help: str = "",
                  bounds: Sequence[float] = DEFAULT_WAIT_BOUNDS,
                  **labels: Any) -> Histogram:
        existing, key = self._register(name, labels, "histogram", help)
        if existing is None:
            existing = self._metrics[(name, key)] = Histogram(
                name, key, help, bounds=bounds)
        return existing  # type: ignore[return-value]

    def sorted_metrics(self) -> List[Metric]:
        """All instruments in (name, labels) order — the export order."""
        if len(self._sorted) != len(self._metrics):    # series never leave
            self._sorted = [self._metrics[k] for k in sorted(self._metrics)]
        return list(self._sorted)

    def kind_of(self, name: str) -> Optional[str]:
        return self._kinds.get(name)

    def help_of(self, name: str) -> str:
        return self._helps.get(name, "")

    def __len__(self) -> int:
        return len(self._metrics)


def valid_interval(interval: float) -> float:
    """``interval`` as the sampler's period, or a :class:`ValueError`.

    NaN would send the sampler's timeouts backwards in time and ``inf``
    would never tick, so both are refused with the non-positive values.
    """
    interval = float(interval)
    if not 0 < interval < math.inf:
        raise ValueError("metrics interval must be a finite number of "
                         f"simulated seconds > 0, not {interval!r}")
    return interval


def _row(metric: Metric, tick: int, t: float) -> Dict[str, Any]:
    """The sample row of ``metric`` at ``tick``; a series that is no
    longer fed holds its final value."""
    values = metric._values
    held = tick - metric._first
    value = values[held] if held < len(values) else values[-1]
    row: Dict[str, Any] = {
        "t": t,
        "metric": metric.name,
        "type": metric.kind,
        "labels": metric._row_labels,
    }
    if metric.kind == "histogram":
        row["count"], row["sum"], cumulative = value
        row["buckets"] = dict(zip(metric._les, cumulative))
    else:
        row["value"] = value
    return row


class _SampleRows:
    """:attr:`Telemetry.samples`: the hub's columns read as sample rows.

    Tick-major, ``(name, labels)``-sorted within a tick, a series
    appearing from the first tick after its registration.  Rows are built
    when asked for — ``len()`` builds none — and the rows of one series
    share its ``labels`` dict, so treat them as read-only.
    """

    __slots__ = ("_tele",)

    def __init__(self, tele: "Telemetry"):
        self._tele = tele

    def __len__(self) -> int:
        through = self._tele._rows_through
        return through[-1] if through else 0

    def of(self, metrics: Iterable[Metric]) -> Iterator[Dict[str, Any]]:
        """The rows of ``metrics`` (a run of the export order)."""
        metrics = list(metrics)
        for tick, t in enumerate(self._tele.ticks):
            for metric in metrics:
                if metric._first <= tick:
                    yield _row(metric, tick, t)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return self.of(self._tele._sampled)


class Telemetry:
    """A registry plus the simulated-time sampler process.

    The engine creates one per job when ``JobConfig.metrics_interval``
    is set, hangs it off the shared ``Timeline`` (so every instrumented
    layer can reach it without signature changes), calls :meth:`start`
    before the job and :meth:`stop` when the orchestrator finishes.

    Storage is one column per series: a tick appends one value to the
    column of every series still being fed and allocates nothing else.
    :attr:`samples` reads the columns back as the dict rows the exports
    are made of (see :class:`_SampleRows`); it is read-only and
    iterable, not a ``list``.  A job that finished hands its per-job
    gauges back through :meth:`retire`; they are probed once more and
    then hold that value in every later row without being probed again.
    """

    def __init__(self, sim, interval: float):
        self.sim = sim
        self.interval = valid_interval(interval)
        self.registry = MetricsRegistry()
        self.ticks: List[float] = []
        self.samples = _SampleRows(self)
        self._sampled: List[Metric] = []    # series with a column, export order
        self._live: List[Metric] = []       # ... the ones a tick still feeds
        self._rows_through: List[int] = []  # len(samples) after each tick
        self._releases: Dict[Metric, int] = {}
        self._retiring: List[Gauge] = []
        self._retired: Set[Metric] = set()
        self._stopped = False
        self._running = False

    # -- registration (delegates) ----------------------------------------
    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self.registry.counter(name, help, **labels)

    def gauge(self, name: str, help: str = "",
              probe: Optional[Callable[[], float]] = None,
              capacity: Optional[float] = None, **labels: Any) -> Gauge:
        gauge = self.registry.gauge(name, help, probe=probe,
                                    capacity=capacity, **labels)
        if probe is not None and gauge in self._retired:
            # A later job registering under a finished one's name: the
            # series held its final value meanwhile and is fed again.
            self._retired.remove(gauge)
            values = gauge._values
            values.extend([values[-1]] * (len(self.ticks) - gauge._first
                                          - len(values)))
            self._feed_the_unretired()
        return gauge

    def histogram(self, name: str, help: str = "",
                  bounds: Sequence[float] = DEFAULT_WAIT_BOUNDS,
                  **labels: Any) -> Histogram:
        return self.registry.histogram(name, help, bounds=bounds, **labels)

    def retire(self, gauges: Iterable[Gauge]) -> None:
        """The caller is done with ``gauges`` and nothing will move what
        its probes read: take one last value at the next tick (or
        :meth:`stop`), then stop probing.  A gauge several registrants
        share retires when the last of them has let go."""
        for gauge in gauges:
            self._releases[gauge] = self._releases.get(gauge, 0) + 1
            self._retiring.append(gauge)

    def _feed_the_unretired(self) -> None:
        retired = self._retired
        self._live = [m for m in self._sampled if m not in retired]

    # -- sampling ---------------------------------------------------------
    def start(self) -> None:
        """Spawn the sampler process unless one is running or the hub is
        stopped.  The sampler self-terminates when nothing else is
        pending (see :meth:`_run`), which on a multi-round session
        happens at the end of every round; the next round's start
        spawns a fresh one."""
        if not self._running and not self._stopped:
            self._running = True
            self.sim.process(self._run(), name="telemetry.sampler")

    def stop(self) -> None:
        """End sampling; takes one final snapshot at the current time."""
        self._stopped = True
        self.sample()

    def _run(self):
        while True:
            yield self.sim.timeout(self.interval)
            if self._stopped:
                break
            self.sample()
            # Nothing else pending: the job is either wedged or ended
            # without stop(); ticking on would keep the event loop alive
            # forever and mask the engine's deadlock detection.
            if self.sim.peek() == float("inf"):
                break
        self._running = False

    def sample(self) -> None:
        """Snapshot every live series at the current virtual time.

        At an instant that already has a tick the tick is brought up to
        date in place: what happened since the sampler ran belongs to
        it, and a :meth:`stop` landing on a tick must not report stale
        finals.
        """
        t = self.sim.now
        ticks = self.ticks
        if ticks and t <= ticks[-1]:
            for metric in self._live:
                metric._values[-1] = metric._snapshot()
        else:
            if len(self._sampled) != len(self.registry):
                self._sampled = self.registry.sorted_metrics()
                for metric in self._sampled:
                    if metric._first is None:
                        metric._first = len(ticks)
                self._feed_the_unretired()
            ticks.append(t)
            for metric in self._live:
                metric._values.append(metric._snapshot())
            self._rows_through.append(len(self.samples) + len(self._sampled))
        if self._retiring:
            # A gauge retires once it holds its last value: one let go
            # of before its first tick waits for that tick.
            releases = self._releases
            self._retired.update(
                g for g in self._retiring
                if g._values and releases[g] >= len(g._probes))
            self._retiring = [g for g in self._retiring if not g._values]
            self._feed_the_unretired()

    # -- series queries ---------------------------------------------------
    def points(self, metric: Metric) -> List[Tuple[float, Any]]:
        """``[(t, value), ...]`` of one series, one point per tick since
        its first (``[]`` if it has not been sampled)."""
        if metric._first is None:
            return []
        ticks = self.ticks[metric._first:]
        values = metric._values
        points = list(zip(ticks, values))
        if len(values) < len(ticks):        # retired: holds its final value
            final = values[-1]
            points += [(t, final) for t in ticks[len(values):]]
        return points

    def _scalar_series(self) -> List[Metric]:
        return [m for m in self._sampled if m.kind != "histogram"]

    def series(self) -> Dict[Tuple[str, LabelKey], List[Tuple[float, float]]]:
        """``(name, labels) -> [(t, value), ...]`` for counters/gauges,
        in first-sampled order."""
        return {(m.name, m.labels): self.points(m)
                for m in sorted(self._scalar_series(),
                                key=lambda m: m._first)}

    def final_values(self) -> Dict[str, float]:
        """Last sampled value of every counter/gauge series."""
        return {m.series(): m._values[-1] for m in self._scalar_series()}


# -- membership gauges -----------------------------------------------------

def register_membership_gauges(tele: Telemetry, health,
                               coordinator=None, **labels: Any) -> List[Gauge]:
    """Register the elastic-membership gauge family for one job.

    ``health`` is the job's :class:`~repro.core.faults.ClusterHealth`;
    ``coordinator`` its :class:`~repro.core.membership.CoordinatorGroup`
    when control-plane replication is on.  These are the saturation-side
    counterpart of the per-node CPU gauges: an auto-scaler reads CPU
    busy fractions to *decide* and these gauges to *see what it did*.
    Returns the gauges, for the job to :meth:`~Telemetry.retire` when it
    finishes and its membership is frozen.
    """
    gauges = [
        tele.gauge("glasswing_membership_active_nodes",
                   help="nodes currently active in the job",
                   probe=lambda: float(len(health.alive_nodes)),
                   capacity=float(health.n_nodes), **labels),
        tele.gauge("glasswing_membership_standby_nodes",
                   help="hardware nodes not (yet) part of the job",
                   probe=lambda: float(len(health.inactive)), **labels),
        tele.gauge("glasswing_membership_departed_nodes",
                   help="nodes drained out of the job",
                   probe=lambda: float(len(health.departed_at)), **labels),
        tele.gauge("glasswing_membership_dead_nodes",
                   help="nodes lost to crashes",
                   probe=lambda: float(len(health.dead_at)), **labels),
    ]
    if coordinator is not None:
        gauges += [
            tele.gauge("glasswing_coordinator_alive_replicas",
                       help="surviving control-plane replicas",
                       probe=lambda: float(len(coordinator.alive_replicas())),
                       capacity=float(len(coordinator.replicas)), **labels),
            tele.gauge("glasswing_coordinator_epoch",
                       help="leadership epoch (bumps on every failover)",
                       probe=lambda: float(coordinator.epoch), **labels),
        ]
    return gauges


# -- export ---------------------------------------------------------------

def ensure_parent_dir(path: str) -> str:
    """Create ``path``'s parent directories if missing; returns ``path``."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    return path


def write_json(path: str, payload: Any) -> str:
    """Write ``payload`` as diff-stable JSON; returns ``path``.

    The one format of every report, baseline and gate result the repo
    writes: utf-8, parent directories created, ``indent=2``, sorted keys
    and a trailing newline.
    """
    ensure_parent_dir(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_metrics_jsonl(telemetry: Telemetry, path: str) -> str:
    """One JSON object per sample row, keys sorted — diff-stable."""
    ensure_parent_dir(path)
    with open(path, "w", encoding="utf-8") as fh:
        for row in telemetry.samples:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def openmetrics_text(telemetry: Telemetry) -> str:
    """The sampled series as OpenMetrics exposition text.

    Families appear in sorted name order, each with its ``# TYPE`` and
    ``# HELP`` line followed by every sample of the family in time
    order (timestamps are simulated seconds); counters expose the
    mandatory ``_total`` suffix and histograms their cumulative
    ``_bucket``/``_count``/``_sum`` triplet.  Ends with ``# EOF``.
    """
    registry = telemetry.registry
    lines: List[str] = []
    # export order is (name, labels): a family is one run of it
    for family, members in groupby(telemetry._sampled, lambda m: m.name):
        kind = registry.kind_of(family) or "gauge"
        lines.append(f"# TYPE {family} {kind}")
        help_text = registry.help_of(family)
        if help_text:
            lines.append(f"# HELP {family} {help_text}")
        for row in telemetry.samples.of(members):
            labels = _label_key(row["labels"])
            ts = _fmt_value(row["t"])
            if kind == "histogram":
                for le, n in row["buckets"].items():    # in bound order
                    bucket_labels = _label_key(
                        dict(row["labels"], le=le))
                    lines.append(
                        f"{render_series(family + '_bucket', bucket_labels)}"
                        f" {n} {ts}")
                lines.append(f"{render_series(family + '_count', labels)}"
                             f" {row['count']} {ts}")
                lines.append(f"{render_series(family + '_sum', labels)}"
                             f" {_fmt_value(row['sum'])} {ts}")
            else:
                suffix = "_total" if kind == "counter" else ""
                lines.append(f"{render_series(family + suffix, labels)}"
                             f" {_fmt_value(row['value'])} {ts}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(telemetry: Telemetry, path: str) -> str:
    ensure_parent_dir(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(openmetrics_text(telemetry))
    return path


_OPENMETRICS_SUFFIXES = (".om", ".prom", ".txt", ".openmetrics")


def write_metrics(telemetry: Telemetry, path: str) -> str:
    """Write ``path`` in the format its extension implies.

    ``.om`` / ``.prom`` / ``.txt`` / ``.openmetrics`` select OpenMetrics
    text; anything else (canonically ``.jsonl``) selects JSONL.
    """
    if path.endswith(_OPENMETRICS_SUFFIXES):
        return write_openmetrics(telemetry, path)
    return write_metrics_jsonl(telemetry, path)


# -- validation -----------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)"
    r"(?: (?P<ts>[^ ]+))?$")
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_number(token: str, where: str) -> float:
    if token == "+Inf":
        return float("inf")
    if token == "-Inf":
        return float("-inf")
    if token == "NaN":
        return float("nan")
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"{where}: bad number {token!r}")


def validate_openmetrics(text: str) -> int:
    """Self-contained OpenMetrics format check; returns the sample count.

    Raises :class:`ValueError` on the violations that matter for our
    exports: missing/misplaced ``# EOF``, samples before their family's
    ``# TYPE``, interleaved families, counters without the ``_total``
    suffix or decreasing in time, malformed label sets, and histogram
    bucket sets that are non-cumulative, have duplicate or out-of-order
    ``le`` bounds, or lack the terminal ``+Inf`` bucket.  Histogram
    sample sets must also be complete and self-consistent: every
    timestamped bucket set needs its ``_count`` and ``_sum`` samples,
    ``+Inf`` must equal ``_count``, and both ``_count`` and ``_sum``
    are cumulative — they may never decrease between timestamps.
    """
    if not text.endswith("\n"):
        raise ValueError("exposition must end with a newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[-1] != "# EOF":
        raise ValueError("exposition must end with '# EOF'")
    kinds: Dict[str, str] = {}
    closed: set = set()
    current: Optional[str] = None
    counter_last: Dict[str, float] = {}
    n_samples = 0
    hist_buckets: Dict[Tuple[str, LabelKey, str], List[Tuple[float, float]]]
    hist_buckets = {}
    hist_counts: Dict[Tuple[str, LabelKey, str], float] = {}
    hist_sums: Dict[Tuple[str, LabelKey, str], float] = {}
    # (family, labels, _count|_sum) -> last seen value; samples within a
    # family arrive in time order, so cumulative fields must not dip
    hist_last: Dict[Tuple[str, LabelKey, str], float] = {}

    def family_of(name: str) -> str:
        for suffix in ("_bucket", "_count", "_sum", "_total"):
            base = name[:-len(suffix)] if name.endswith(suffix) else None
            if base and kinds.get(base) in ("histogram", "counter"):
                return base
        return name

    for i, line in enumerate(lines[:-1], 1):
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValueError(f"line {i}: malformed TYPE line")
            _, _, name, kind = parts
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "info", "stateset", "unknown"):
                raise ValueError(f"line {i}: unknown metric type {kind!r}")
            if name in kinds:
                raise ValueError(f"line {i}: duplicate TYPE for {name!r}")
            if current is not None:
                closed.add(current)
            if name in closed:
                raise ValueError(f"line {i}: family {name!r} interleaved")
            kinds[name] = kind
            current = name
            continue
        if line.startswith("# HELP "):
            name = line.split(" ", 3)[2]
            if name != current:
                raise ValueError(f"line {i}: HELP outside family block")
            continue
        if line.startswith("#"):
            raise ValueError(f"line {i}: unexpected comment {line!r}")
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {i}: malformed sample {line!r}")
        name = m.group("name")
        family = family_of(name)
        if family not in kinds:
            raise ValueError(f"line {i}: sample before TYPE for {name!r}")
        if family != current:
            raise ValueError(f"line {i}: family {family!r} interleaved")
        kind = kinds[family]
        raw_labels = m.group("labels") or ""
        pairs = _LABEL_PAIR_RE.findall(raw_labels)
        rebuilt = ",".join(f'{k}="{v}"' for k, v in pairs)
        if rebuilt != raw_labels:
            raise ValueError(f"line {i}: malformed labels {raw_labels!r}")
        labels = _label_key(dict(pairs))
        value = _parse_number(m.group("value"), f"line {i}")
        ts = m.group("ts")
        ts_val = _parse_number(ts, f"line {i}") if ts is not None else None
        if kind == "counter":
            if not name.endswith("_total"):
                raise ValueError(
                    f"line {i}: counter sample {name!r} lacks _total")
            series = render_series(name, labels)
            if value < counter_last.get(series, 0.0):
                raise ValueError(f"line {i}: counter {series} decreased")
            counter_last[series] = value
        elif kind == "histogram":
            if not name.endswith(("_bucket", "_count", "_sum")):
                raise ValueError(
                    f"line {i}: histogram sample {name!r} has no "
                    "bucket/count/sum suffix")
            base_labels = tuple((k, v) for k, v in labels if k != "le")
            key = (family, base_labels, ts or "")
            if name.endswith("_bucket"):
                le = dict(labels).get("le")
                if le is None:
                    raise ValueError(f"line {i}: bucket without le label")
                hist_buckets.setdefault(key, []).append(
                    (_parse_number(le, f"line {i}"), value))
            else:
                suffix = "_count" if name.endswith("_count") else "_sum"
                if suffix == "_count":
                    hist_counts[key] = value
                else:
                    hist_sums[key] = value
                if value != value:
                    raise ValueError(
                        f"line {i}: NaN histogram {suffix} value")
                series_key = (family, base_labels, suffix)
                if value < hist_last.get(series_key, float("-inf")):
                    raise ValueError(
                        f"line {i}: histogram "
                        f"{render_series(family, base_labels)}{suffix} "
                        f"decreased")
                hist_last[series_key] = value
        n_samples += 1
        if ts_val is not None and ts_val != ts_val:
            raise ValueError(f"line {i}: NaN timestamp")
    for key, buckets in hist_buckets.items():
        family = key[0]
        les = [le for le, _ in buckets]
        if any(b <= a for a, b in zip(les, les[1:])):
            raise ValueError(
                f"{family}: bucket le values not strictly increasing")
        if not les or not math.isinf(les[-1]):
            raise ValueError(f"{family}: missing +Inf bucket")
        counts = [n for _, n in buckets]
        if counts != sorted(counts):
            raise ValueError(f"{family}: bucket counts not cumulative")
        if key not in hist_counts:
            raise ValueError(f"{family}: bucket set without a _count "
                             "sample")
        if key not in hist_sums:
            raise ValueError(f"{family}: bucket set without a _sum sample")
        if counts[-1] != hist_counts[key]:
            raise ValueError(f"{family}: +Inf bucket != _count")
    return n_samples
