"""Tests for the command-line entry points."""

import re

import pytest

from repro.cli import build_parser, main, make_job
from repro.core.config import JobConfig
from repro.hw.specs import DeviceKind


def test_parser_defaults():
    args = build_parser().parse_args(["wordcount"])
    assert args.nodes == 4
    assert args.device == "cpu"
    assert args.storage == "dfs"


def test_parser_rejects_unknown_app():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sorting-hat"])


def test_make_job_wordcount():
    args = build_parser().parse_args(
        ["wordcount", "--megabytes", "0.1", "--chunk-kb", "16"])
    app, inputs, config = make_job(args)
    assert app.name == "wordcount"
    assert "corpus" in inputs
    assert config.chunk_size == 16 * 1024
    assert isinstance(config, JobConfig)


def test_make_job_terasort_sets_replication():
    args = build_parser().parse_args(["terasort", "--records", "500"])
    app, inputs, config = make_job(args)
    assert config.output_replication == 1
    assert len(inputs["teragen"]) == 500 * 100


def test_make_job_kmeans_gpu():
    args = build_parser().parse_args(
        ["kmeans", "--device", "gpu", "--points", "100", "--centers", "4"])
    app, inputs, config = make_job(args)
    assert config.device is DeviceKind.GPU
    assert app.k == 4


def test_make_job_matmul_chunk_is_record():
    args = build_parser().parse_args(["matmul", "--matrix", "64"])
    app, inputs, config = make_job(args)
    assert config.chunk_size == app.record_format.record_size


def test_main_runs_small_job(capsys):
    rc = main(["wordcount", "--nodes", "2", "--megabytes", "0.2",
               "--chunk-kb", "32"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "job time" in out
    assert "output pairs" in out


def test_main_runs_terasort(capsys):
    rc = main(["terasort", "--nodes", "2", "--records", "2000",
               "--chunk-kb", "50"])
    assert rc == 0
    assert "terasort" in capsys.readouterr().out


def test_main_writes_trace_and_report(tmp_path, capsys):
    import json
    trace = tmp_path / "t.json"
    report = tmp_path / "r.json"
    rc = main(["wordcount", "--nodes", "2", "--megabytes", "0.2",
               "--chunk-kb", "32", "--trace-out", str(trace),
               "--report-json", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trace written to" in out
    assert "report written to" in out
    t = json.loads(trace.read_text())
    assert any(e.get("ph") == "X" for e in t["traceEvents"])
    r = json.loads(report.read_text())
    assert r["schema"] == "glasswing-report/1"
    assert r["phases"]["map"]["dominant_stage"] is not None


def test_metrics_out_requires_interval():
    with pytest.raises(SystemExit, match="metrics-interval"):
        main(["wordcount", "--metrics-out", "m.om"])


def test_main_writes_metrics_both_formats(tmp_path, capsys):
    import json
    from repro.obs import validate_openmetrics
    om = tmp_path / "m.om"
    jl = tmp_path / "m.jsonl"
    common = ["wordcount", "--nodes", "2", "--megabytes", "0.2",
              "--chunk-kb", "32", "--metrics-interval", "0.001"]
    assert main(common + ["--metrics-out", str(om)]) == 0
    assert main(common + ["--metrics-out", str(jl)]) == 0
    assert "metrics written to" in capsys.readouterr().out
    assert validate_openmetrics(om.read_text()) > 0
    rows = [json.loads(line) for line in jl.read_text().splitlines()]
    assert rows and all({"t", "metric", "type", "labels"} <= set(r)
                        for r in rows)


def test_export_flags_create_parent_dirs(tmp_path, capsys):
    """Regression: --trace-out/--report-json/--metrics-out used to fail
    when the target directory did not exist yet."""
    trace = tmp_path / "a" / "b" / "t.json"
    report = tmp_path / "c" / "d" / "r.json"
    metrics = tmp_path / "e" / "f" / "m.jsonl"
    rc = main(["wordcount", "--nodes", "2", "--megabytes", "0.2",
               "--chunk-kb", "32", "--trace-out", str(trace),
               "--report-json", str(report),
               "--metrics-interval", "0.001", "--metrics-out", str(metrics)])
    assert rc == 0
    assert trace.is_file() and report.is_file() and metrics.is_file()


@pytest.mark.parametrize("flags,written", [
    ([], set()),
    (["trace"], {"trace"}),
    (["report"], {"report"}),
    (["metrics"], {"metrics"}),
    (["trace", "report", "metrics"], {"trace", "report", "metrics"}),
])
def test_write_artifacts_writes_exactly_what_was_asked(tmp_path, capsys,
                                                       flags, written):
    import argparse
    from repro.cli import _write_artifacts
    from repro.obs.telemetry import Telemetry
    from repro.simt import Simulator, Timeline
    paths = {name: str(tmp_path / "out" / f"{name}.json")
             for name in ("trace", "report", "metrics")}
    args = argparse.Namespace(
        trace_out=paths["trace"] if "trace" in flags else None,
        report_json=paths["report"] if "report" in flags else None,
        metrics_out=paths["metrics"] if "metrics" in flags else None)
    built = []

    def report():
        built.append(1)
        return {"schema": "stub"}

    _write_artifacts(args, timeline=Timeline(),
                     telemetry=Telemetry(Simulator(), interval=1.0),
                     report=report)
    out = capsys.readouterr().out
    import os
    assert {name for name, path in paths.items()
            if os.path.exists(path)} == written
    assert len(built) == ("report" in flags)    # built only on demand
    for name in ("trace", "report", "metrics"):
        assert (f"{name} written to" in out) == (name in written)


def test_write_artifacts_without_metrics_flags(tmp_path, capsys):
    """``repro dag`` has no --metrics-* flags: nothing to read, no error."""
    import argparse
    from repro.cli import _write_artifacts
    from repro.simt import Timeline
    report = tmp_path / "r.json"
    _write_artifacts(argparse.Namespace(trace_out=None,
                                        report_json=str(report)),
                     timeline=Timeline(), report=lambda: {"ok": 1})
    assert report.read_text() == '{\n  "ok": 1\n}\n'


def test_report_json_keys_sorted(tmp_path):
    import json
    report = tmp_path / "r.json"
    main(["wordcount", "--nodes", "2", "--megabytes", "0.2",
          "--chunk-kb", "32", "--report-json", str(report)])
    text = report.read_text()
    # the one write_json format: sorted keys, trailing newline
    assert text == json.dumps(json.loads(text), indent=2,
                              sort_keys=True) + "\n"


def test_main_explain_prints_analysis(capsys):
    rc = main(["wordcount", "--nodes", "2", "--megabytes", "0.2",
               "--chunk-kb", "32", "--explain"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "map pipeline" in out
    assert "reduce pipeline" in out
    assert "dominant stage" in out
    assert "critical path" in out


# -- --fault-seed vs the explicit fault flags --------------------------------

@pytest.mark.parametrize("flag,value", [
    ("--fail-map", "0"), ("--fail-reduce", "1"), ("--node-crash", "1@0.0001"),
    ("--straggle", "0@4"), ("--join", "auto@0.0001"),
    ("--leave", "auto@0.0001"), ("--coord-crash", "0.0001")])
def test_fault_seed_rejects_explicit_fault_flags(flag, value):
    """Regression: --fault-seed used to return its seeded plan before it
    looked at any explicit flag, silently discarding them."""
    with pytest.raises(SystemExit, match="--fault-seed") as exc:
        main(["wordcount", "--nodes", "4", "--megabytes", "0.5",
              "--fault-seed", "7", flag, value])
    assert exc.value.code != 0
    assert flag in str(exc.value)


def test_fault_seed_conflict_names_every_flag():
    from repro.cli import make_faults
    args = build_parser().parse_args(
        ["wordcount", "--fault-seed", "7", "--node-crash", "1@0.0001",
         "--coord-crash", "0.0001"])
    with pytest.raises(SystemExit) as exc:
        make_faults(args)
    assert "--node-crash, --coord-crash" in str(exc.value)


def test_fault_seed_alone_is_unchanged():
    from repro.cli import make_faults
    from repro.core.faults import FaultPlan
    args = build_parser().parse_args(
        ["wordcount", "--nodes", "4", "--fault-seed", "7",
         "--map-rate", "0.3", "--speculate"])
    assert make_faults(args, n_splits_hint=8) == FaultPlan.seeded(
        7, n_splits=8, n_nodes=4,
        n_partitions=4 * JobConfig().partitions_per_node,
        map_rate=0.3, reduce_rate=0.1, straggler_rate=0.1)


# -- iterative k-means and the dag subcommand -------------------------------

def test_kmeans_iterations_flag_runs_dag_driver(capsys):
    rc = main(["kmeans", "--nodes", "2", "--points", "2000", "--centers",
               "4", "--iterations", "3", "--tolerance", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kmeans-iterative" in out
    assert "round 3" in out
    assert "input cache" in out
    assert "% hit rate" in out


def test_kmeans_single_iteration_unchanged(capsys):
    """--iterations 1 (the default) stays on the classic one-job path."""
    rc = main(["kmeans", "--nodes", "2", "--points", "2000",
               "--centers", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kmeans-iterative" not in out
    assert "job time" in out


def test_kmeans_iterations_validation():
    with pytest.raises(SystemExit, match="iterations"):
        main(["kmeans", "--iterations", "0"])


def test_kmeans_iterations_reject_fault_flags():
    with pytest.raises(SystemExit, match="single-iteration"):
        main(["kmeans", "--nodes", "2", "--points", "2000", "--centers",
              "4", "--iterations", "2", "--fail-map", "0"])


def test_kmeans_iterative_report(tmp_path, capsys):
    import json
    report = tmp_path / "dag.json"
    rc = main(["kmeans", "--nodes", "2", "--points", "2000", "--centers",
               "4", "--iterations", "2", "--tolerance", "0",
               "--report-json", str(report)])
    assert rc == 0
    r = json.loads(report.read_text())
    assert r["schema"] == "glasswing-dag-report/1"
    assert r["iterations"] == 2
    assert len(r["rounds"]) == 2
    assert r["rounds"][1]["cache_hit_bytes"] > 0


def test_kmeans_iterative_writes_metrics_and_report(tmp_path, capsys):
    """Regression: the multi-round tail handed ``_write_artifacts`` no
    telemetry, so --metrics-out crashed after the run (leaving an empty
    metrics file) and the --report-json behind it was never written."""
    import json
    metrics = tmp_path / "m.jsonl"
    report = tmp_path / "dag.json"
    rc = main(["kmeans", "--nodes", "2", "--points", "2000", "--centers",
               "4", "--iterations", "2", "--tolerance", "0",
               "--metrics-interval", "0.001", "--metrics-out", str(metrics),
               "--report-json", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "metrics written to" in out and "report written to" in out
    rows = [json.loads(line) for line in metrics.read_text().splitlines()]
    # every round is sampled, not only the first
    assert {r["labels"].get("job") for r in rows} >= {"lloyd@r1", "lloyd@r2"}
    assert json.loads(report.read_text())["iterations"] == 2


def test_dag_subcommand_prefixsum(capsys):
    rc = main(["dag", "prefixsum", "--nodes", "2", "--values", "2000",
               "--block", "256"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "prefixsum on 2 node(s)" in out
    assert "blocksum@r1" in out and "scan@r1" in out


def test_dag_subcommand_pagerank_trace(tmp_path, capsys):
    import json
    trace = tmp_path / "pr.trace.json"
    rc = main(["dag", "pagerank", "--nodes", "2", "--vertices", "200",
               "--edges", "1000", "--rounds", "2",
               "--trace-out", str(trace)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "degrees@r1" in out and "contrib@r3" in out
    t = json.loads(trace.read_text())
    lanes = {e.get("args", {}).get("job") for e in t["traceEvents"]}
    assert "contrib@r2" in lanes


def test_dag_subcommand_validates_rounds():
    with pytest.raises(SystemExit, match="rounds"):
        main(["dag", "pagerank", "--rounds", "0"])


# -- elastic membership flags (docs/elasticity.md) --------------------------

def test_parser_elastic_flags():
    args = build_parser().parse_args(
        ["wordcount", "--active-nodes", "2", "--join", "auto@0.001",
         "--join", "3@0.002", "--leave", "auto@0.003",
         "--elastic", "2:4", "--coord-replicas", "3",
         "--coord-crash", "0.001", "--failover-timeout", "0.01"])
    assert args.active_nodes == 2
    assert args.join == ["auto@0.001", "3@0.002"]
    assert args.leave == ["auto@0.003"]
    assert args.elastic == "2:4"
    assert args.coord_replicas == 3
    assert args.coord_crash == [0.001]
    assert args.failover_timeout == 0.01


def test_make_faults_builds_membership_schedule():
    from repro.cli import make_faults
    args = build_parser().parse_args(
        ["wordcount", "--join", "auto@0.001", "--leave", "2@0.002",
         "--coord-crash", "0.003"])
    plan = make_faults(args)
    assert plan is not None
    assert plan.node_joins[0].node is None
    assert plan.node_joins[0].at == 0.001
    assert plan.node_leaves[0].node == 2
    assert plan.coordinator_crashes[0].at == 0.003


def test_make_job_elastic_config():
    args = build_parser().parse_args(
        ["wordcount", "--active-nodes", "3", "--coord-replicas", "2",
         "--failover-timeout", "0.02"])
    _, _, config = make_job(args)
    assert config.active_nodes == 3
    assert config.coordinator_replicas == 2
    assert config.failover_timeout == 0.02


def test_membership_spec_validation():
    with pytest.raises(SystemExit, match="--join"):
        main(["wordcount", "--join", "nonsense"])
    with pytest.raises(SystemExit, match="invalid fault schedule"):
        main(["wordcount", "--leave", "1@-0.5"])
    with pytest.raises(SystemExit, match="--elastic"):
        main(["wordcount", "--elastic", "4"])


def test_main_join_and_leave_mid_job(capsys):
    rc = main(["wordcount", "--nodes", "4", "--active-nodes", "2",
               "--megabytes", "0.2", "--chunk-kb", "16",
               "--join", "auto@0.0002", "--leave", "auto@0.0009"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "joined_nodes   [2]" in out
    assert "departed_nodes [2]" in out
    assert "final_active_nodes 2" in out


def test_main_coordinator_failover(capsys):
    rc = main(["wordcount", "--nodes", "2", "--megabytes", "0.2",
               "--chunk-kb", "32", "--coord-replicas", "2",
               "--coord-crash", "0.0003", "--failover-timeout", "0.001"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "coordinator_failovers 1" in out
    assert "coordinator_epoch 1" in out


def test_main_elastic_autoscaler(capsys):
    # 8 MiB keeps the map window long enough for the controller to act.
    rc = main(["wordcount", "--nodes", "4", "--active-nodes", "2",
               "--megabytes", "8", "--chunk-kb", "256",
               "--scheduler", "static-affinity", "--elastic", "2:4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert re.search(r"^  elastic_scale_outs 1$", out, re.M)
    assert re.search(r"^  elastic_scale_ins 0$", out, re.M)
    assert re.search(r"^  joined_nodes +\[2\]$", out, re.M)
