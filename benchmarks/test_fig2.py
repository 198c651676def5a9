"""Benchmarks: regenerate Figure 2 (I/O-bound horizontal scaling)."""

from repro.bench import fig2

from benchmarks.conftest import run_experiment


def test_fig2a_pvc(benchmark):
    run_experiment(benchmark, fig2.pvc_report)


def test_fig2b_wc(benchmark):
    run_experiment(benchmark, fig2.wc_report)


def test_fig2c_ts(benchmark):
    run_experiment(benchmark, fig2.ts_report)
