"""Tests for the DAG/iterative acceptance bench and its regression gate.

The committed ``BENCH_dag.json`` is replayed in CI by
``python -m repro.bench.regress``; these tests pin the machinery on
reduced shapes so they stay cheap: the points are deterministic, the
gate passes against a just-measured baseline, and an injected host-cost
slowdown trips it.
"""

import json
from dataclasses import replace

from repro.bench.dag import kmeans_point, prefixsum_point
from repro.bench.regress import BASELINES, main, replay
from repro.core.costs import DEFAULT_HOST_COSTS

DAG_TOLERANCES = BASELINES["dag"].tolerances

# Small shapes: enough rounds for the cache to matter, cheap to re-run.
KM_SMALL = dict(n_points=4_000, rounds=3)
PS_SMALL = dict(n_values=10_000)


def strip_wall(point):
    return {k: v for k, v in point.items() if k != "wall_s"}


def write_baseline(tmp_path, points):
    path = tmp_path / "BENCH_dag.json"
    path.write_text(json.dumps({"points": points}))
    return str(path)


def test_kmeans_point_is_deterministic():
    first = kmeans_point(**KM_SMALL)
    second = kmeans_point(**KM_SMALL)
    assert strip_wall(first) == strip_wall(second)
    assert first["identical_output"]
    assert first["cache_hit_bytes"] > 0


def test_dag_regress_passes_against_fresh_baseline(tmp_path):
    points = [kmeans_point(**KM_SMALL), prefixsum_point(**PS_SMALL)]
    result = replay("dag", write_baseline(tmp_path, points))
    assert result["ok"], result["failures"]
    assert result["points"] == 2
    # kmeans carries 3 extra metrics, prefixsum 1, on the shared 4.
    assert len(result["comparisons"]) == 2 * len(DAG_TOLERANCES) + 3 + 1


def test_dag_regress_detects_injected_slowdown(tmp_path):
    baseline = write_baseline(tmp_path, [prefixsum_point(**PS_SMALL)])
    # Per-item costs are noise next to I/O at this shape; the per-push
    # shuffle overhead dominates, so inflating it is a real slowdown.
    slow = replace(DEFAULT_HOST_COSTS,
                   push_overhead=DEFAULT_HOST_COSTS.push_overhead * 10)
    result = replay("dag", baseline, costs=slow)
    assert not result["ok"]
    failed = {r["metric"] for r in result["failures"]}
    assert "elapsed_s" in failed


def test_dag_regress_rejects_unknown_point(tmp_path):
    import pytest
    baseline = write_baseline(tmp_path, [{"app": "dag:mystery"}])
    with pytest.raises(ValueError, match="unknown dag point"):
        replay("dag", baseline)


def test_cli_gates_on_dag_baseline(tmp_path, capsys):
    doctored = [prefixsum_point(**PS_SMALL)]
    doctored[0]["elapsed_s"] *= 2.0
    rc = main(["--nodes", "1", "--skip-service",
               "--dag-baseline", write_baseline(tmp_path, doctored)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "dag:prefixsum" in out


def test_cli_skips_dag_when_baseline_absent(tmp_path, capsys, monkeypatch):
    """An older checkout without BENCH_dag.json still gates scaling."""
    import shutil
    shutil.copy("BENCH_scaling.json", tmp_path / "BENCH_scaling.json")
    monkeypatch.chdir(tmp_path)
    rc = main(["--nodes", "1"])
    assert rc == 0
    assert "dag replay skipped" in capsys.readouterr().out
