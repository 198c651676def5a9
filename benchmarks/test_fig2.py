"""Benchmarks: regenerate Figure 2 (I/O-bound horizontal scaling)."""

import pytest

from repro.bench import fig2

from benchmarks.conftest import run_experiment


def test_fig2a_pvc(benchmark):
    run_experiment(benchmark, fig2.pvc_report)


def test_fig2b_wc(benchmark):
    run_experiment(benchmark, fig2.wc_report)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "Figure 2(c) final gap out of the paper's band since 307282c (PR 3, "
    "'one sequential pusher process per split'): the 64-node Glasswing "
    "TeraSort went 0.0176 -> 0.0312 s with the Hadoop column unchanged "
    "(0.0385 s), so the ratios read 1.06, 1.36, 1.33, 1.07, 1.23 where "
    "PR 2 read 1.15, 1.38, 1.40, 1.32, 2.18 and the final one must lie in "
    "[1.5, 4.0] (paper: 2.7x).  Cause diagnosed in EXPERIMENTS.md and "
    "ROADMAP item 1: the single pusher charges push_overhead x peers on "
    "one thread; item 1's repair must restore the band.  Strict: a "
    "repair, or a different breakage, turns this job red."))
def test_fig2c_ts(benchmark):
    try:
        run_experiment(benchmark, fig2.ts_report)
    except AssertionError as exc:
        # only the declared failure is expected: one check, the final band
        if str(exc).count("[FAIL]") != 1 \
                or "final gap in the paper's band" not in str(exc):
            pytest.fail(f"Figure 2(c) broke differently: {exc}")
        raise
