"""Tests for the ``python -m repro.bench`` entry point (stubbed)."""

import ast
import glob
import inspect
import pathlib
import re
import shutil
import sys

import pytest

from repro.bench import EXPERIMENTS, fig4, panel
from repro.bench import __main__ as bench_main
from repro.bench.harness import ExperimentReport, Table
from repro.bench.regress import BASELINES

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def make_stub(passed=True):
    rep = ExperimentReport("Stub Exp", "stub claim")
    t = Table("stub", ["v"])
    t.add_row(v=1.5)
    rep.tables.append(t)
    rep.check("stub check", passed, "details")
    return rep


def stub_report_functions(monkeypatch, calls):
    """Replace every panel of the table with a stub that records its
    bound arguments and, like the real one, writes to the ``json_path``
    it was given."""
    for ref in (ref for refs in EXPERIMENTS.values() for ref in refs):
        real = panel(ref)

        def stub(*args, _real=real, _ref=ref, **kwargs):
            bound = inspect.signature(_real).bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((_ref, dict(bound.arguments)))
            if bound.arguments.get("json_path"):
                pathlib.Path(bound.arguments["json_path"]).write_text("{}")
            return make_stub()

        monkeypatch.setattr(sys.modules[real.__module__], real.__name__,
                            stub)


def test_all_names_dispatch(monkeypatch, tmp_path):
    """Every advertised experiment builds its panels, full and quick,
    through the one table: each panel gets ``quick`` alone, except that
    a full run of a baseline experiment writes its ``BENCH_<name>.json``."""
    monkeypatch.chdir(tmp_path)
    assert bench_main.ALL == tuple(EXPERIMENTS)
    calls = []
    stub_report_functions(monkeypatch, calls)
    for name, refs in EXPERIMENTS.items():
        for quick in (False, True):
            calls.clear()
            reports = list(bench_main._reports(name, quick))
            assert len(reports) == len(refs) and all(
                isinstance(r, ExperimentReport) for r in reports), name
            assert [ref for ref, _ in calls] == list(refs)
            writes = not quick and name in BASELINES
            for _, args in calls:
                assert args["quick"] is quick, name
                assert args.get("json_path") == (
                    f"BENCH_{name}.json" if writes else None), name
    assert sorted(glob.glob("BENCH_*.json")) == sorted(
        row.path for row in BASELINES.values())


def test_quick_runs_never_write_a_committed_baseline(monkeypatch, tmp_path):
    """``--quick`` is a smoke run: whatever it measures, the tracked
    ``BENCH_*.json`` files keep their bytes."""
    tracked = sorted(glob.glob("BENCH_*.json"))
    assert len(tracked) == 4
    for path in tracked:
        shutil.copy(path, tmp_path / path)
    before = {path: pathlib.Path(path).read_bytes() for path in tracked}
    monkeypatch.chdir(tmp_path)
    calls = []
    stub_report_functions(monkeypatch, calls)
    for name in EXPERIMENTS:
        list(bench_main._reports(name, True))
    writers = [c for c in calls if "json_path" in c[1]]
    assert len(writers) == 4
    assert all(args["json_path"] is None for _, args in writers), writers
    assert {path: pathlib.Path(path).read_bytes()
            for path in tracked} == before


def test_each_panel_prints_its_own_time(monkeypatch, capsys):
    """The runner builds, times and prints one panel at a time, so two
    panels of different durations print their own elapsed times."""
    clock = [0.0]
    monkeypatch.setattr(bench_main, "perf_counter", lambda: clock[0])
    for ref, seconds in zip(EXPERIMENTS["fig4"], (1.0, 2.5)):
        def stub(quick=False, _seconds=seconds):
            clock[0] += _seconds
            return make_stub()
        monkeypatch.setattr(fig4, ref.partition(".")[2], stub)
    assert bench_main.main(["fig4"]) == 0
    out = capsys.readouterr().out
    assert re.findall(r"^\((\d+\.\d)s\)$", out, re.M) == ["1.0", "2.5"]


def test_table_and_benchmarks_name_the_same_panels():
    """The table's figure, table and ablation panels (every experiment
    that is not a regress baseline) are exactly the panels the
    ``run_experiment(benchmark, <panel>)`` calls in ``benchmarks/`` run."""
    table = [ref for name, refs in EXPERIMENTS.items()
             if name not in BASELINES for ref in refs]
    benched = [
        ast.unparse(node.args[1])
        for path in sorted(BENCHMARKS.glob("test_*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "run_experiment"]
    assert len(table) == 20
    assert sorted(benched) == sorted(table)


def test_main_prints_and_succeeds(monkeypatch, capsys):
    monkeypatch.setattr(bench_main, "_reports",
                        lambda name, quick: [make_stub(True)])
    rc = bench_main.main(["table1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Stub Exp" in out
    assert "[PASS] stub check" in out


def test_main_reports_failures(monkeypatch, capsys):
    monkeypatch.setattr(bench_main, "_reports",
                        lambda name, quick: [make_stub(False)])
    rc = bench_main.main(["fig2"])
    assert rc == 1


def test_failure_count_is_per_experiment_not_per_panel(monkeypatch, capsys):
    monkeypatch.setattr(bench_main, "_reports",
                        lambda name, quick: [make_stub(False),
                                             make_stub(False)])
    assert bench_main.main(["fig2"]) == 1
    err = capsys.readouterr().err
    assert "1 experiment(s) had failing shape checks" in err


def test_main_writes_output_dir(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench_main, "_reports",
                        lambda name, quick: [make_stub(True)])
    rc = bench_main.main(["fig5", "--output", str(tmp_path / "reports")])
    assert rc == 0
    written = pathlib.Path(tmp_path / "reports" / "fig5.md")
    assert written.exists()
    text = written.read_text()
    assert "Stub Exp" in text


def test_main_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        bench_main.main(["fig99"])


def test_quick_flag_passes_through(monkeypatch):
    seen = {}

    def fake(name, quick):
        seen["quick"] = quick
        return [make_stub(True)]

    monkeypatch.setattr(bench_main, "_reports", fake)
    bench_main.main(["fig3", "--quick"])
    assert seen["quick"] is True


def test_reports_dispatch_names_are_importable():
    """Every panel of the table imports, takes ``quick``, and writes no
    file unless it is given a path."""
    for ref in (ref for refs in EXPERIMENTS.values() for ref in refs):
        params = inspect.signature(panel(ref)).parameters
        assert params["quick"].default is False, ref
        assert "json_path" not in params or (
            params["json_path"].default is None), ref
