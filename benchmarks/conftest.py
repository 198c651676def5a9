"""Shared helpers for the benchmark suite.

Every benchmark regenerates one panel of the paper's tables and figures
— one per panel of :data:`repro.bench.EXPERIMENTS` outside the
``repro.bench.regress`` baselines (``tests/bench/test_bench_cli.py``
keeps the two lists equal): it runs the panel's full ladder exactly once
under pytest-benchmark's timer (the wall-clock number measures the
harness itself — the *simulated* results are attached as ``extra_info``
and printed), then asserts the panel's shape checks, so a calibration
regression fails the bench.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from typing import Callable

from repro.bench.harness import ExperimentReport


def run_experiment(benchmark, fn: Callable[[], ExperimentReport],
                   ) -> ExperimentReport:
    """Execute one report-producing experiment under the benchmark timer."""
    report = benchmark.pedantic(fn, rounds=1, iterations=1)
    benchmark.extra_info["experiment"] = report.experiment
    benchmark.extra_info["checks"] = [str(c) for c in report.checks]
    for table in report.tables:
        benchmark.extra_info.setdefault("tables", []).append(table.render())
    print()
    print(report.render())
    report.assert_shape()
    return report
