"""PipelineReport analysis, counters, and the structured job report."""

import dataclasses
import json
import random

import pytest

from repro.apps import TeraSortApp, WordCountApp
from repro.apps.datagen import wiki_text
from repro.bench.scaling import _wc_case
from repro.core import JobConfig, run_glasswing
from repro.core.faults import FaultPlan
from repro.core.metrics import JobMetrics
from repro.hw.presets import das4_cluster
from repro.obs import PIPELINE_STAGES, PipelineReport, aggregate_counters
from repro.obs.telemetry import Telemetry
from repro.service import JobServer, JobSubmission, ServicePolicy
from repro.simt import Timeline
from tests.integration.test_sched_equivalence import APPS, run_app
from tests.obs.test_telemetry import scan_series
from tests.simt.test_trace import ScanTimeline


def synthetic_timeline():
    """node0: input [0,2]+[2,4], kernel [1,5], output [4,6]; a 1s stall
    [6,7]; then output [7,8].  Elapsed window [0,8]."""
    tl = Timeline()
    tl.record("map.input", "node0", 0.0, 2.0)
    tl.record("map.input", "node0", 2.0, 4.0)
    tl.record("map.kernel", "node0", 1.0, 5.0)
    tl.record("map.output", "node0", 4.0, 6.0)
    tl.record("map.output", "node0", 7.0, 8.0)
    tl.record("map.elapsed", "node0", 0.0, 8.0)
    # node1 finishes first -> node0 is the critical node
    tl.record("map.kernel", "node1", 0.0, 3.0)
    tl.record("map.elapsed", "node1", 0.0, 3.0)
    return tl


def test_critical_node_resolution():
    rep = PipelineReport(synthetic_timeline(), phase="map")
    assert rep.node == "node0"
    assert rep.elapsed == 8.0


def test_explicit_node_override():
    rep = PipelineReport(synthetic_timeline(), phase="map", node="node1")
    assert rep.elapsed == 3.0
    assert rep.dominant_stage == "kernel"


def test_utilization_and_overlap():
    rep = PipelineReport(synthetic_timeline(), phase="map")
    util = rep.utilization()
    assert util["input"] == pytest.approx(4.0 / 8.0)
    assert util["kernel"] == pytest.approx(4.0 / 8.0)
    assert util["output"] == pytest.approx(3.0 / 8.0)
    assert rep.overlap_factor == pytest.approx(11.0 / 8.0)
    assert rep.dominant_stage in ("input", "kernel")   # tied at 4.0


def test_critical_path_attributes_deepest_stage_and_waits():
    rep = PipelineReport(synthetic_timeline(), phase="map")
    path = rep.critical_path()
    # Walk back from 8: output [7,8] -> 1; gap [6,7] -> wait 1;
    # output [4,6] -> 2; kernel [1,4] covers back to 1 -> 3;
    # input [0,1] -> 1.
    assert path["output"] == pytest.approx(3.0)
    assert path["wait"] == pytest.approx(1.0)
    assert path["kernel"] == pytest.approx(3.0)
    assert path["input"] == pytest.approx(1.0)
    assert sum(path.values()) == pytest.approx(rep.elapsed)


def test_empty_phase_is_quiet():
    rep = PipelineReport(Timeline(), phase="reduce")
    assert rep.node is None
    assert rep.elapsed == 0.0
    assert rep.overlap_factor == 0.0
    assert rep.dominant_stage is None
    assert sum(rep.critical_path().values()) == 0.0
    assert "no activity" in rep.explain()


def test_explain_names_dominant_stage():
    text = PipelineReport(synthetic_timeline(), phase="map").explain()
    assert "critical node node0" in text
    assert "dominant stage" in text
    assert "overlap factor" in text
    assert "buffer-wait" in text


def test_aggregate_counters_roll_up():
    tl = Timeline()
    tl.record("map.input", "n0", 0.0, 1.0, bytes=100, slot_wait=0.25)
    tl.record("map.stage", "n0", 1.0, 1.0, bytes=100, passthrough=True)
    tl.record("map.retrieve", "n0", 2.0, 2.0, bytes=40, passthrough=True)
    tl.record("map.output", "n0", 2.0, 3.0, bytes=40, queue_wait=0.5)
    tl.record("map.elapsed", "n0", 0.0, 3.0, slots_acquired=4,
              slots_released=4, slots_leaked=0)
    tl.record("net.transfer", "0->1", 1.0, 2.0, bytes=64, tx_wait=0.1,
              fabric_wait=0.2, rx_wait=0.3)
    tl.record("merge.flush", "n0", 2.5, 2.75, bytes=30, raw_bytes=60)
    c = aggregate_counters(tl)
    assert c["bytes_read"] == 100
    assert c["bytes_staged"] == 100
    assert c["bytes_retrieved"] == 40
    assert c["bytes_output"] == 40
    assert c["bytes_shuffled"] == 64
    assert c["bytes_spilled"] == 30
    assert c["transfers"] == 1
    assert c["slots_acquired"] == 4 and c["slots_leaked"] == 0
    assert c["slot_wait_seconds"] == pytest.approx(0.25)
    assert c["queue_wait_seconds"] == pytest.approx(0.5)
    assert c["net_wait_seconds"] == pytest.approx(0.6)


def _wc_batched(batch_size):
    return run_glasswing(
        WordCountApp(), {"wiki": wiki_text(256 * 1024, seed=42)},
        das4_cluster(nodes=2),
        JobConfig(chunk_size=16 * 1024, buffering=1, batch_size=batch_size))


def _terasort():
    data = random.Random(2).randbytes(100 * 3_000)
    return run_glasswing(TeraSortApp.from_input(data, sample_every=40),
                         {"records.bin": data}, das4_cluster(nodes=4),
                         JobConfig(chunk_size=20_000))


@pytest.mark.parametrize("run", [
    pytest.param(lambda: _wc_batched(None), id="wordcount"),
    pytest.param(lambda: _wc_batched(7), id="wordcount-batch7"),
    pytest.param(_terasort, id="terasort-reduce"),
])
def test_wait_counters_match_the_causal_edges(run):
    """The report's wait counters are the seconds of their causal classes:
    a wait is counted once, whatever the simulation batch size."""
    timeline = run().timeline
    counters = aggregate_counters(timeline)

    def edge_seconds(wait_class):
        return sum(e.duration for e in timeline.waits
                   if e.wait_class == wait_class)

    assert counters["queue_wait_seconds"] == pytest.approx(
        edge_seconds("queue"), rel=1e-9)
    assert counters["slot_wait_seconds"] == pytest.approx(
        edge_seconds("buffer-slot"), rel=1e-9)


def test_job_report_structure(wc_result):
    report = wc_result.to_report()
    assert report["schema"] == "glasswing-report/1"
    assert report["app"] == "wordcount"
    assert report["nodes"] == 2
    assert set(report["phases"]) == {"map", "reduce"}
    for phase in report["phases"].values():
        assert set(phase["utilization"]) == set(PIPELINE_STAGES)
        assert phase["elapsed"] > 0
        assert phase["dominant_stage"] in PIPELINE_STAGES
        assert sum(phase["critical_path"].values()) == pytest.approx(
            phase["elapsed"])
    assert report["times"]["job"] == wc_result.job_time
    assert report["counters"]["bytes_read"] > 0
    assert report["counters"]["slots_leaked"] == 0
    assert report["stats"]["leaked_buffer_slots"] == 0
    json.dumps(report)    # fully JSON-serialisable, enums and all


def test_overlap_factor_exceeds_one_with_double_buffering(wc_result):
    """Acceptance: the default buffering=2 workload genuinely pipelines."""
    rep = PipelineReport(wc_result.timeline, phase="map")
    assert rep.overlap_factor > 1.0


# -- degraded inputs: no telemetry, no timeline ----------------------------

def test_saturation_without_telemetry(wc_result):
    """A telemetry-disabled run (no metrics_interval) analyses quietly:
    saturation has no samples to rank, and to_dict stays serialisable."""
    assert wc_result.telemetry is None
    rep = PipelineReport(wc_result.timeline, phase="map")
    assert rep.saturation() == []
    assert rep.saturated_resource() is None
    d = rep.to_dict()
    assert d["saturation"] == [] and d["saturated_resource"] is None
    json.dumps(d)


def test_placement_without_sched_spans():
    """A timeline predating (or bypassing) the scheduling layer has no
    sched.place spans -> placement() is None, not a crash."""
    tl = synthetic_timeline()
    rep = PipelineReport(tl, phase="map")
    assert rep.placement() is None
    assert rep.to_dict()["placement"] is None


def test_placement_on_real_run(wc_result):
    placement = PipelineReport(wc_result.timeline, phase="map").placement()
    assert placement is not None
    assert placement["policy"] is not None
    assert sum(placement["by_node"].values()) > 0


def test_to_dict_on_empty_timeline():
    rep = PipelineReport(Timeline(), phase="map")
    assert rep.saturation() == []
    assert rep.placement() is None
    d = rep.to_dict()
    assert d["elapsed"] == 0.0
    assert d["dominant_stage"] is None
    assert d["overlap_factor"] == 0.0
    json.dumps(d)


def test_job_report_carries_causal_profile(wc_result):
    report = wc_result.to_report()
    causal = report["causal"]
    assert causal["schema"] == "glasswing-causal/1"
    assert causal["orphan_edges"] == 0
    assert causal["elapsed_s"] == wc_result.job_time
    assert causal["stages"]
    json.dumps(report)


# -- the index changes no byte of a report, and bounds its cost ------------

def _over(result, timeline):
    """``result`` as if it had recorded into ``timeline``."""
    return dataclasses.replace(
        result, timeline=timeline,
        metrics=JobMetrics(timeline, result.n_nodes))


def _dumps(report):
    return json.dumps(report, sort_keys=True)


def assert_report_matches_full_scans(result, monkeypatch):
    """to_report() against the same report built with every Timeline query
    and ``Telemetry.series`` a full scan (the test-local references)."""
    indexed = _dumps(result.to_report())
    with monkeypatch.context() as patch:
        patch.setattr(Telemetry, "series", scan_series)
        scanned = _dumps(
            _over(result, ScanTimeline.over(result.timeline)).to_report())
    assert indexed == scanned


@pytest.mark.parametrize("case", sorted(APPS))
def test_report_is_byte_identical_to_full_scans(case, monkeypatch):
    assert_report_matches_full_scans(run_app(case), monkeypatch)


def test_faulted_report_is_byte_identical_to_full_scans(monkeypatch):
    """A seeded fault plan fills the categories the fault properties read
    (task failures, speculation, recovery, a node crash)."""
    app, inputs, cfg_kwargs, nodes, _ = APPS["wordcount"]()
    cfg = JobConfig(input_replication=nodes, speculative_execution=True,
                    **cfg_kwargs)
    n_splits = -(-len(inputs["wiki"]) // cfg.chunk_size)
    clean = run_glasswing(app, inputs, das4_cluster(nodes=nodes), cfg)
    plan = FaultPlan.seeded(
        5, n_splits=n_splits, n_nodes=nodes,
        n_partitions=nodes * cfg.partitions_per_node, map_rate=0.4,
        reduce_rate=0.2, straggler_rate=0.3, node_crash_count=1,
        crash_window=(0.2 * clean.map_time, 0.9 * clean.map_time))
    result = run_glasswing(app, inputs, das4_cluster(nodes=nodes), cfg,
                           faults=plan)
    faults = result.to_report()["faults"]
    assert faults["reexecutions"] > 0 and faults["wasted_seconds"] > 0
    assert_report_matches_full_scans(result, monkeypatch)


def test_sampled_report_is_byte_identical_to_full_scans(monkeypatch):
    result = run_app("wordcount", metrics_interval=0.0005)
    report = result.to_report()
    assert report["phases"]["map"]["saturation"]
    assert report["telemetry"]["final"]
    assert_report_matches_full_scans(result, monkeypatch)


def test_two_tenant_reports_are_byte_identical_to_full_scans(monkeypatch):
    """Per-job reports read forks of one session timeline; the session's
    own pipeline analysis reads the hub every job sampled into."""
    server = JobServer(das4_cluster(nodes=4),
                       policy=ServicePolicy(max_running=2),
                       config=JobConfig(chunk_size=4096,
                                        partitions_per_node=1),
                       metrics_interval=0.0005)
    for i, tenant in enumerate(("alice", "bob", "alice", "bob")):
        server.submit(JobSubmission(
            name=f"j{i}", app=WordCountApp(), tenant=tenant,
            inputs={f"j{i}.txt": wiki_text(8_192, seed=80 + i)},
            submit_at=i * 1e-4))
    service = server.run()
    assert len(service.completed) == 4
    for record in service.completed:
        assert_report_matches_full_scans(record.result, monkeypatch)
    for phase in ("map", "reduce"):
        indexed = PipelineReport(service.timeline, phase,
                                 telemetry=service.telemetry).to_dict()
        with monkeypatch.context() as patch:
            patch.setattr(Telemetry, "series", scan_series)
            scanned = PipelineReport(ScanTimeline.over(service.timeline),
                                     phase,
                                     telemetry=service.telemetry).to_dict()
        assert _dumps(indexed) == _dumps(scanned)
        assert indexed["saturation"]


class CountingList(list):
    """A span list that counts the full passes made over it: an iteration,
    or a slice that starts at the first entry and runs to the last."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()

    def __getitem__(self, index):
        if (isinstance(index, slice) and len(self)
                and index.indices(len(self)) == (0, len(self), 1)):
            self.passes += 1
        return super().__getitem__(index)


def _report_passes(nodes):
    app, inputs, cfg = _wc_case(nodes)
    result = run_glasswing(app, inputs, das4_cluster(nodes=nodes),
                           JobConfig(scheduler="static-affinity", **cfg))
    timeline = Timeline()               # a fresh index: its build counts
    timeline.spans = spans = CountingList(result.timeline.spans)
    timeline.waits = result.timeline.waits
    report = _over(result, timeline).to_report()
    assert _dumps(report) == _dumps(result.to_report())
    return spans.passes, len(spans)


def test_report_cost_is_a_constant_number_of_passes():
    """The complexity gate: to_report() walks the span list a small fixed
    number of times whatever the node count (it used to be one per node
    per stage: 246 passes at 16 nodes, 726 at 64)."""
    small, n_small = _report_passes(16)
    large, n_large = _report_passes(64)
    assert n_large > 4 * n_small            # the ladder did grow the log
    assert small == large
    assert 0 < large <= 12
