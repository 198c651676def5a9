"""Shared experiment infrastructure: tables, shape checks, reports.

The harness separates three things the paper mixes in each figure:

* the **numbers** we measured (a :class:`Table` of rows);
* the **paper's claim** about those numbers (free text, quoted);
* the **shape checks** — machine-verified predicates asserting that the
  claim's *shape* (who wins, by roughly what factor, where crossovers
  fall) holds in the reproduction.  Benchmarks fail when a shape check
  fails, so regressions in the model are caught like any other bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.causal import causal_profile

__all__ = ["Table", "ShapeCheck", "ExperimentReport", "fmt_seconds",
           "speedups", "parallel_efficiency", "point_profile"]


def fmt_seconds(value: Any) -> str:
    """Human-scaled rendering of a numeric cell (ints stay ints)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if value == 0:
        return "0"
    if abs(value) >= 100:
        return f"{value:.0f}"
    if abs(value) >= 1:
        return f"{value:.2f}"
    return f"{value:.4f}"


class Table:
    """A titled grid of measurement rows with aligned ASCII rendering."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[Dict[str, Any]] = []

    def add_row(self, **cells: Any) -> None:
        unknown = set(cells) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}")
        self.rows.append(cells)

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(name)
        return [row.get(name) for row in self.rows]

    def render(self) -> str:
        widths = {
            c: max(len(c), *(len(fmt_seconds(r.get(c, ""))) for r in self.rows))
            if self.rows else len(c)
            for c in self.columns
        }
        sep = "  "
        header = sep.join(c.rjust(widths[c]) for c in self.columns)
        rule = "-" * len(header)
        lines = [self.title, rule, header, rule]
        for row in self.rows:
            lines.append(sep.join(
                fmt_seconds(row.get(c, "")).rjust(widths[c])
                for c in self.columns))
        lines.append(rule)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


@dataclass
class ShapeCheck:
    """One machine-verified property of an experiment's results."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}" + (f" — {self.detail}" if self.detail
                                          else "")


@dataclass
class ExperimentReport:
    """Everything one experiment produced."""

    experiment: str                 # e.g. "Figure 2(b)"
    paper_claim: str                # quoted/summarised claim from the paper
    tables: List[Table] = field(default_factory=list)
    checks: List[ShapeCheck] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    timelines: Dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(ShapeCheck(name, bool(passed), detail))

    def attach_timeline(self, label: str, timeline: Any) -> None:
        """Keep a run's timeline so :meth:`export_traces` can dump it."""
        self.timelines[label] = timeline

    def export_traces(self, directory: str) -> List[str]:
        """Write one Chrome trace per attached timeline into ``directory``.

        File names are ``<experiment>-<label>.trace.json`` with the
        experiment and label slugs lower-cased and filesystem-safe.
        """
        from pathlib import Path
        from repro.obs import write_chrome_trace

        def slug(text: str) -> str:
            return "".join(c if c.isalnum() or c in "-_." else "-"
                           for c in text.lower()).strip("-")

        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        for label, timeline in self.timelines.items():
            path = out / f"{slug(self.experiment)}-{slug(label)}.trace.json"
            written.append(write_chrome_trace(timeline, str(path)))
        return written

    def write_baseline(self, json_path: Optional[str], **fields: Any) -> None:
        """Write ``fields`` plus this report's checks as a ``BENCH_*.json``.

        A falsy ``json_path`` writes nothing: quick runs and tests want
        the report, never a new committed baseline.
        """
        if not json_path:
            return
        from repro.obs import write_json
        write_json(json_path, {**fields, "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in self.checks]})
        self.notes.append(f"wrote {json_path}")

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_checks(self) -> List[ShapeCheck]:
        return [c for c in self.checks if not c.passed]

    def render(self) -> str:
        lines = [f"== {self.experiment} ==",
                 f"paper: {self.paper_claim}", ""]
        for table in self.tables:
            lines.append(table.render())
            lines.append("")
        for check in self.checks:
            lines.append(str(check))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def assert_shape(self) -> None:
        """Raise if any shape check failed (used by the pytest benches)."""
        failed = self.failed_checks()
        if failed:
            raise AssertionError(
                f"{self.experiment}: shape checks failed: "
                + "; ".join(str(c) for c in failed))

    def __str__(self) -> str:
        return self.render()


def speedups(times: Sequence[float]) -> List[float]:
    """Speedup of each entry relative to the first (the 1-node run)."""
    if not times:
        return []
    base = times[0]
    return [base / t if t else float("inf") for t in times]


def parallel_efficiency(nodes: Sequence[int], times: Sequence[float]) -> float:
    """Efficiency at the largest node count, normalised to the smallest."""
    if len(times) < 2:
        return 1.0
    n0, n1 = nodes[0], nodes[-1]
    return (times[0] / times[-1]) / (n1 / n0)


def point_profile(timeline, elapsed_s: float) -> Dict[str, Any]:
    """A baseline point's causal profile, so ``repro.bench.regress`` can
    explain a drift; the per-job tree is detail a point does not need."""
    profile = causal_profile(timeline, elapsed_s=elapsed_s)
    del profile["tree"]
    return profile
