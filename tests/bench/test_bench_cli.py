"""Tests for the ``python -m repro.bench`` entry point (stubbed)."""

import glob
import importlib
import inspect
import pathlib
import shutil

import pytest

from repro.bench import __main__ as bench_main
from repro.bench.harness import ExperimentReport, Table


def make_stub(passed=True):
    rep = ExperimentReport("Stub Exp", "stub claim")
    t = Table("stub", ["v"])
    t.add_row(v=1.5)
    rep.tables.append(t)
    rep.check("stub check", passed, "details")
    return rep


def stub_report_functions(monkeypatch, mod, calls):
    """Replace every report-producing function of a bench module with a
    stub that records its bound arguments and, like the real one, writes
    to whatever ``json_path`` it ends up with (its default included)."""
    for fname, real in inspect.getmembers(mod, inspect.isfunction):
        if real.__module__ != mod.__name__ or not (
                fname == "run_all" or fname.endswith("report")):
            continue

        def stub(*args, _real=real, _name=fname, **kwargs):
            bound = inspect.signature(_real).bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((mod.__name__, _name, dict(bound.arguments)))
            if bound.arguments.get("json_path"):
                pathlib.Path(bound.arguments["json_path"]).write_text("{}")
            return [make_stub()] if _name == "run_all" else make_stub()

        monkeypatch.setattr(mod, fname, stub)


def test_all_names_dispatch(monkeypatch, tmp_path):
    """Every advertised experiment name resolves to report(s), full and
    quick, through the one table."""
    monkeypatch.chdir(tmp_path)     # a stubbed full run writes its baseline
    assert bench_main.ALL == tuple(bench_main.EXPERIMENTS)
    for name, (module, full, quick) in bench_main.EXPERIMENTS.items():
        mod = importlib.import_module(f"repro.bench.{module}")
        assert callable(full) and callable(quick), name
        calls = []
        stub_report_functions(monkeypatch, mod, calls)
        for is_quick in (False, True):
            reports = bench_main._reports(name, is_quick)
            assert reports and all(
                isinstance(r, ExperimentReport) for r in reports), name
        assert len(calls) >= 2, name


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
    for name, (module, _full, _quick) in bench_main.EXPERIMENTS.items():
        mod = importlib.import_module(f"repro.bench.{module}")
        stub_report_functions(monkeypatch, mod, calls)
        bench_main._reports(name, True)
    writers = [c for c in calls if "json_path" in c[2]]
    assert len(writers) == 4
    assert all(args["json_path"] is None for _, _, args in writers), writers
    assert {path: pathlib.Path(path).read_bytes()
            for path in tracked} == before


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
    """The dispatch table's modules all import (no lazy breakage)."""
    for module, _full, _quick in bench_main.EXPERIMENTS.values():
        importlib.import_module(f"repro.bench.{module}")
