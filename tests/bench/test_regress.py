"""Tests for the bench regression gate (python -m repro.bench.regress)."""

import json
from dataclasses import replace

import pytest

from repro.bench.regress import BASELINES, compare_point, main, replay
from repro.core.costs import DEFAULT_HOST_COSTS

BASELINE = "BENCH_scaling.json"
DEFAULT_TOLERANCES = BASELINES["scaling"].tolerances
SMALL = (1, 4)      # replayed points stay cheap in CI


# ------------------------------------------------------------- unit level
def _point(elapsed=1.0, nbytes=1000, overlap=1.5, app="wordcount", nodes=4):
    return {"app": app, "nodes": nodes, "elapsed_s": elapsed,
            "network_bytes": nbytes,
            "map_pipeline": {"overlap_factor": overlap}}


def test_compare_point_within_tolerance():
    rows = compare_point(_point(), _point(elapsed=1.01),
                         DEFAULT_TOLERANCES)
    assert all(r["ok"] for r in rows)


def test_compare_point_flags_each_metric():
    rows = compare_point(
        _point(),
        _point(elapsed=1.5, nbytes=1001, overlap=1.6),
        DEFAULT_TOLERANCES)
    assert [r["metric"] for r in rows if not r["ok"]] == \
        ["elapsed_s", "network_bytes", "overlap_factor"]


def test_compare_point_zero_baseline():
    rows = compare_point(_point(nbytes=0), _point(nbytes=0),
                         DEFAULT_TOLERANCES)
    assert all(r["ok"] for r in rows)
    rows = compare_point(_point(nbytes=0), _point(nbytes=5),
                         DEFAULT_TOLERANCES)
    assert not [r for r in rows if r["metric"] == "network_bytes"][0]["ok"]


# ------------------------------------------------- against the committed baseline
def test_regress_passes_on_committed_baseline():
    result = replay("scaling", BASELINE, nodes=SMALL)
    assert result["ok"], result["failures"]
    assert result["points"] == 2 * len(SMALL)   # both apps


def test_regress_detects_injected_slowdown():
    slow = replace(DEFAULT_HOST_COSTS,
                   sort_item=DEFAULT_HOST_COSTS.sort_item * 10)
    result = replay("scaling", BASELINE, nodes=(1,), costs=slow)
    assert not result["ok"]
    assert result["failures"]


def test_regress_explains_drift_with_root_causes():
    """A drift failure carries one explain-diff per drifted point, and
    the injected slowdown's stage is the #1 cause."""
    slow = replace(DEFAULT_HOST_COSTS,
                   sort_item=DEFAULT_HOST_COSTS.sort_item * 10)
    result = replay("scaling", BASELINE, nodes=(4,), cases=("wordcount",),
                    costs=slow)
    assert not result["ok"]
    assert len(result["explanations"]) == 1
    entry = result["explanations"][0]
    assert (entry["app"], entry["nodes"]) == ("wordcount", 4)
    diff = entry["diff"]
    assert diff["schema"] == "glasswing-causal-diff/1"
    top = diff["causes"][0]
    assert top["stage"] == "map.partition_cpu"
    assert top["wait_class"] == "self"


def test_regress_passing_points_carry_no_explanations():
    result = replay("scaling", BASELINE, nodes=(1,), cases=("wordcount",))
    assert result["ok"]
    assert result["explanations"] == []


def test_regress_notes_baselines_without_causal(tmp_path):
    """Pre-causal baselines still fail cleanly, with a regenerate hint."""
    doctored = json.loads(open(BASELINE, encoding="utf-8").read())
    doctored["sweep"] = [p for p in doctored["sweep"]
                         if (p["app"], p["nodes"]) == ("wordcount", 1)]
    doctored["sweep"][0].pop("causal")
    doctored["sweep"][0]["elapsed_s"] *= 2.0
    path = tmp_path / "old-baseline.json"
    path.write_text(json.dumps(doctored))
    result = replay("scaling", str(path), nodes=(1,))
    assert not result["ok"]
    assert "regenerate" in result["explanations"][0]["note"]


def test_regress_rejects_empty_selection():
    with pytest.raises(ValueError, match="no baseline points"):
        replay("scaling", BASELINE, nodes=(3,))


# ------------------------------------------------------------- CLI level
def test_cli_passes_and_writes_json(tmp_path, capsys):
    out = tmp_path / "sub" / "regress.json"
    rc = main(["--nodes", "1", "--json", str(out), "--skip-service"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert out.read_text() == json.dumps(payload, indent=2,
                                         sort_keys=True) + "\n"


def test_cli_fails_on_doctored_baseline(tmp_path, capsys):
    doctored = json.loads(open(BASELINE, encoding="utf-8").read())
    for p in doctored["sweep"]:
        p["elapsed_s"] *= 2.0
        # drift the causal profile too, so the explainer has causes
        for stage in p["causal"]["stages"].values():
            stage["self_s"] *= 2.0
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doctored))
    rc = main(["--baseline", str(path), "--nodes", "1", "--skip-service"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    # the gate explains itself: a root-cause table per drifted point
    assert "root cause" in out
    assert "wait class" in out


def test_cli_json_out_writes_machine_readable_result(tmp_path, capsys):
    out = tmp_path / "deep" / "nested" / "result.json"
    rc = main(["--nodes", "1", "--case", "wordcount",
               "--json-out", str(out),
               "--skip-service", "--skip-dag", "--skip-elastic"])
    assert rc == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    # sorted keys, trailing newline: diff- and artifact-stable
    assert out.read_text() == json.dumps(payload, indent=2,
                                         sort_keys=True) + "\n"


def test_cli_json_and_json_out_agree(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    rc = main(["--nodes", "1", "--case", "wordcount",
               "--json", str(a), "--json-out", str(b),
               "--skip-service", "--skip-dag", "--skip-elastic"])
    assert rc == 0
    capsys.readouterr()
    assert a.read_text() == b.read_text()


def test_cli_missing_baseline_is_an_error(tmp_path, capsys):
    rc = main(["--baseline", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "regress:" in capsys.readouterr().err
