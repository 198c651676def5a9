"""Tests for the elastic chaos bench and its regression gate.

The committed ``BENCH_elastic.json`` is replayed in CI by
``python -m repro.bench.regress``; these tests pin the machinery on a
reduced input so they stay cheap: each chaos point is deterministic and
byte-identical, the gate passes against a just-measured baseline, and
injected drift — both a host-cost slowdown and a doctored invariant —
trips it.
"""

import json
from dataclasses import replace

from repro.bench.elastic import (FAILOVER_TIMEOUT, double_point,
                                 elastic_point, failover_point, halve_point)
from repro.bench.regress import BASELINES, main, replay
from repro.core.costs import DEFAULT_HOST_COSTS

KB_SMALL = 48
ELASTIC_TOLERANCES = BASELINES["elastic"].tolerances


def strip_wall(point):
    return {k: v for k, v in point.items() if k != "wall_s"}


def write_baseline(tmp_path, points):
    path = tmp_path / "BENCH_elastic.json"
    path.write_text(json.dumps({"points": points}))
    return str(path)


def test_every_point_is_deterministic_and_invariant():
    for maker in (double_point, halve_point, failover_point):
        first = maker(kilobytes=KB_SMALL)
        second = maker(kilobytes=KB_SMALL)
        assert strip_wall(first) == strip_wall(second)
        assert first["identical_output"]
        assert first["leaked_buffer_slots"] == 0


def test_point_shapes_carry_their_invariants():
    double = double_point(kilobytes=KB_SMALL)
    assert double["joined"] == 4
    halve = halve_point(kilobytes=KB_SMALL)
    assert halve["departed"] == 4
    assert halve["repushed_runs"] > 0
    failover = failover_point(kilobytes=KB_SMALL)
    assert failover["failovers"] == 2
    assert abs(failover["overhead_s"] - 2 * FAILOVER_TIMEOUT) < 1e-12


def test_elastic_point_dispatcher_round_trips():
    point = elastic_point("elastic:halve", kilobytes=KB_SMALL)
    assert point["app"] == "elastic:halve"
    try:
        elastic_point("elastic:nope")
    except ValueError:
        pass
    else:
        raise AssertionError("unknown point label must raise")


def test_elastic_regress_passes_against_fresh_baseline(tmp_path):
    points = [double_point(kilobytes=KB_SMALL),
              halve_point(kilobytes=KB_SMALL),
              failover_point(kilobytes=KB_SMALL)]
    result = replay("elastic", write_baseline(tmp_path, points))
    assert result["ok"], result["failures"]
    assert result["points"] == 3
    # Every gated metric drifted exactly 0%.
    assert all(r["deviation"] == 0.0 for r in result["comparisons"])
    # double adds 2 extras, halve 4, failover 2, on the shared 5.
    assert len(result["comparisons"]) == 3 * len(ELASTIC_TOLERANCES) + 8


def test_elastic_regress_detects_injected_slowdown(tmp_path):
    baseline = write_baseline(tmp_path, [halve_point(kilobytes=KB_SMALL)])
    slow = replace(DEFAULT_HOST_COSTS,
                   push_overhead=DEFAULT_HOST_COSTS.push_overhead * 10)
    result = replay("elastic", baseline, costs=slow)
    assert not result["ok"]
    assert "elapsed_s" in {r["metric"] for r in result["failures"]}


def test_elastic_regress_detects_doctored_invariant(tmp_path):
    """A baseline claiming different bookkeeping (one more drain) must
    fail the zero-tolerance membership metrics, not slip through."""
    point = halve_point(kilobytes=KB_SMALL)
    point["departed"] += 1
    point["network_bytes"] += 1
    result = replay("elastic", write_baseline(tmp_path, [point]))
    assert not result["ok"]
    failed = {r["metric"] for r in result["failures"]}
    assert {"departed", "network_bytes"} <= failed


def test_elastic_regress_rejects_unknown_point(tmp_path):
    path = write_baseline(tmp_path, [{"app": "elastic:mystery",
                                      "nodes": 8, "kilobytes": 8}])
    try:
        replay("elastic", path)
    except ValueError as exc:
        assert "mystery" in str(exc)
    else:
        raise AssertionError("unknown baseline point must raise")


def test_cli_replays_elastic_baseline(tmp_path, capsys):
    baseline = write_baseline(tmp_path, [failover_point(kilobytes=KB_SMALL)])
    out = tmp_path / "regress.json"
    rc = main(["--skip-service", "--skip-dag",
               "--elastic-baseline", baseline, "--json", str(out)])
    assert rc == 0, capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["elastic"]["ok"]
    assert payload["elastic"]["points"] == 1
