"""Tests for the service trace-replay bench and its regression gate.

The committed 200-job ``BENCH_service.json`` is replayed in CI by
``python -m repro.bench.regress``; these tests pin the machinery on a
reduced trace so they stay cheap: the replay is deterministic, the gate
passes against a just-measured baseline, and an injected host-cost
slowdown trips it.
"""

import json
from dataclasses import replace

from repro.bench.regress import BASELINES, main, replay
from repro.bench.service import service_point
from repro.core.costs import DEFAULT_HOST_COSTS

SMALL_JOBS = 10
SERVICE_TOLERANCES = BASELINES["service"].tolerances


def strip_wall(point):
    return {k: v for k, v in point.items() if k != "wall_s"}


def write_baseline(tmp_path, points):
    path = tmp_path / "BENCH_service.json"
    path.write_text(json.dumps({"points": points}))
    return str(path)


def test_service_point_is_deterministic():
    first = service_point("fair-share", n_jobs=SMALL_JOBS)
    second = service_point("fair-share", n_jobs=SMALL_JOBS)
    assert strip_wall(first) == strip_wall(second)
    assert first["completed"] == SMALL_JOBS
    assert first["leaked_buffer_slots"] == 0


def test_service_regress_passes_against_fresh_baseline(tmp_path):
    points = [service_point(a, n_jobs=SMALL_JOBS)
              for a in ("fair-share", "lpt")]
    result = replay("service", write_baseline(tmp_path, points))
    assert result["ok"], result["failures"]
    assert result["points"] == 2
    assert len(result["comparisons"]) == 2 * len(SERVICE_TOLERANCES)


def test_service_regress_detects_injected_slowdown(tmp_path):
    baseline = write_baseline(
        tmp_path, [service_point("fair-share", n_jobs=SMALL_JOBS)])
    # The 10-job trace's makespan is bound by shared-disk queueing, which
    # absorbs a 10x sort cost; every job pays the per-push overhead.
    slow = replace(DEFAULT_HOST_COSTS,
                   push_overhead=DEFAULT_HOST_COSTS.push_overhead * 10)
    result = replay("service", baseline, costs=slow)
    assert not result["ok"]
    failed = {r["metric"] for r in result["failures"]}
    assert "makespan_s" in failed


def test_cli_gates_on_service_baseline(tmp_path, capsys):
    doctored = [service_point("fair-share", n_jobs=SMALL_JOBS)]
    doctored[0]["makespan_s"] *= 2.0
    doctored[0]["throughput_jobs_per_s"] /= 2.0
    rc = main(["--nodes", "1",
               "--service-baseline", write_baseline(tmp_path, doctored)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "service:fair-share" in out


def test_cli_skips_service_when_baseline_absent(tmp_path, capsys,
                                                monkeypatch):
    """An older checkout without BENCH_service.json still gates scaling."""
    import shutil
    shutil.copy("BENCH_scaling.json", tmp_path / "BENCH_scaling.json")
    monkeypatch.chdir(tmp_path)
    rc = main(["--nodes", "1"])
    assert rc == 0
    assert "service replay skipped" in capsys.readouterr().out
