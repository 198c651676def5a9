"""Tests for the horizontal scaling sweep (``repro.bench.scaling``).

A micro sweep (tiny node counts, no 64-node comparison) keeps the test
fast while still exercising the real pipeline end to end: every sweep
point is a full simulated job.  The wall-clock speedup itself is only
asserted by the full benchmark run — wall time on a shared CI machine
is not a stable test subject — but its *plumbing* (comparison record,
check emission) is.
"""

import json

import pytest

from repro.bench import scaling

MICRO_NODES = (1, 2, 4)


@pytest.fixture(scope="module")
def micro(tmp_path_factory):
    path = tmp_path_factory.mktemp("scaling") / "BENCH_scaling.json"
    rep = scaling.report(nodes=MICRO_NODES, json_path=str(path))
    return rep, json.loads(path.read_text())


def test_micro_sweep_checks_pass(micro):
    rep, _ = micro
    assert rep.all_passed, [c.name for c in rep.checks if not c.passed]


def test_json_structure(micro):
    _, payload = micro
    assert payload["nodes_swept"] == list(MICRO_NODES)
    assert payload["per_node_bytes"] == scaling.PER_NODE_BYTES
    assert "wordcount_64_batched" in payload["wall_budget_s"]
    assert len(payload["sweep"]) == 2 * len(MICRO_NODES)
    apps = {p["app"] for p in payload["sweep"]}
    assert apps == {"wordcount", "terasort"}
    for p in payload["sweep"]:
        assert p["elapsed_s"] > 0
        assert p["wall_s"] > 0
        assert p["leaked_buffer_slots"] == 0
        assert p["batch_autotuned"] is True
        for phase in ("map_pipeline", "reduce_pipeline"):
            assert 0 < p[phase]["dominant_share"] <= 1.0
            assert p[phase]["overlap_factor"] >= p[phase]["dominant_share"]
    # No 64-node point in the micro sweep -> no comparison block.
    assert payload["batch_comparison"] is None
    assert all(c["passed"] for c in payload["checks"])


def test_sweep_point_records_granularity():
    p1 = scaling.sweep_point("wordcount", 2, batch_size=1)
    pb = scaling.sweep_point("wordcount", 2)
    assert p1["batch_size"] == 1 and not p1["batch_autotuned"]
    assert pb["batch_autotuned"] and pb["batch_size"] > 1
    # (Byte equality across granularities is the differential harness's
    # job, under the strict additive-cost tier; the default config's
    # combiner output is legitimately launch-granularity dependent.)
    assert p1["network_bytes"] > 0 and pb["network_bytes"] > 0


def test_weak_scaling_input_grows_linearly():
    a = scaling.sweep_point("terasort", 1)
    b = scaling.sweep_point("terasort", 4)
    # (== up to the fixed-size-record floor in teragen sizing)
    assert b["input_bytes"] == pytest.approx(4 * a["input_bytes"], rel=0.01)
    # Fixed per-node work: elapsed grows far slower than cluster size.
    assert b["elapsed_s"] < 4 * a["elapsed_s"]


def stubbed_sweep(wall_s):
    """A stand-in for :func:`scaling.sweep_point`: fixed simulated
    numbers, ``wall_s`` of host time (100x that at ``batch_size=1``)."""
    def point(case, nodes, batch_size=None, scheduler="static-affinity"):
        return {
            "app": case, "nodes": nodes, "scheduler": scheduler,
            "elapsed_s": 0.3 if scheduler == "static-affinity" else 0.2,
            "map_s": 0.2, "reduce_s": 0.1, "leaked_buffer_slots": 0,
            "wall_s": wall_s * (100 if batch_size == 1 else 1),
            "map_pipeline": {"dominant_stage": "input",
                             "dominant_share": 0.95,
                             "overlap_factor": 1.1}}
    return point


def test_check_strings_do_not_quote_wall_clock(monkeypatch):
    """Two runs that differ only in host time print the same checks;
    the seconds are in the notes."""
    reports = []
    for wall_s in (0.31, 0.47):
        monkeypatch.setattr(scaling, "sweep_point", stubbed_sweep(wall_s))
        reports.append(scaling.report(nodes=(1, 64)))
    first, second = ([str(c) for c in rep.checks] for rep in reports)
    assert any("batched 64-node" in c for c in first)
    assert first == second
    assert reports[0].notes != reports[1].notes
    assert "0.31s" in reports[0].notes[0]
