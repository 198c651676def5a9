"""Causal wait-graph profiling: matching, decomposition, profiles.

The tentpole invariant — every span decomposes exactly into self-time
plus per-class wait-time, with zero unattributed seconds — is checked
three ways here: on hand-built timelines where the numbers are known in
closed form, on real runs of the differential apps, and property-style
across random fault schedules (the fault matrix), where interrupted
operations must leave neither spans nor orphan edges behind.
"""

import functools

import pytest

from repro.apps import TeraSortApp, WordCountApp
from repro.apps.datagen import teragen, wiki_text
from repro.core import JobConfig, run_glasswing
from repro.core.faults import FaultPlan
from repro.hw.presets import das4_cluster
from repro.obs import causal_profile, match_waits, verify_decomposition
from repro.obs.causal import is_aggregate_category, span_request_time
from repro.simt import Timeline
from repro.storage.records import NO_COMPRESSION

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:    # pragma: no cover - hypothesis is an optional extra
    HAVE_HYPOTHESIS = False

NODES = 3
CHUNK = 32_768
INPUT_BYTES = 200_000
N_SPLITS = -(-INPUT_BYTES // CHUNK)
FALLBACK_SEEDS = tuple(range(6))


# -- synthetic timelines ---------------------------------------------------

def test_span_request_time_defaults_and_clamps():
    tl = Timeline()
    plain = tl.record("map.kernel", "node0", 1.0, 2.0)
    assert span_request_time(plain) == 1.0
    early = tl.record("map.kernel", "node0", 1.0, 2.0, t_req=0.25)
    assert span_request_time(early) == 0.25
    # malformed t_req values never push the request after the start
    late = tl.record("map.kernel", "node0", 1.0, 2.0, t_req=5.0)
    assert span_request_time(late) == 1.0
    junk = tl.record("map.kernel", "node0", 1.0, 2.0, t_req="soon")
    assert span_request_time(junk) == 1.0


def test_aggregate_categories():
    assert is_aggregate_category("map.elapsed")
    assert is_aggregate_category("phase.map")
    assert is_aggregate_category("dag.round")
    assert is_aggregate_category("svc.job")
    assert is_aggregate_category("job")
    assert not is_aggregate_category("map.kernel")
    assert not is_aggregate_category("net.transfer")


def test_zero_length_waits_are_dropped():
    tl = Timeline()
    assert tl.record_wait("queue", "q", "map.kernel", "node0",
                          1.0, 1.0) is None
    assert tl.record_wait("queue", "q", "map.kernel", "node0",
                          2.0, 1.0) is None
    assert tl.waits == []


def test_match_assigns_edge_to_owning_span():
    tl = Timeline()
    tl.record("map.kernel", "node0", 1.0, 3.0, t_req=0.5)
    tl.record_wait("queue", "map.q", "map.kernel", "node0", 0.5, 1.0)
    assignments, errors = match_waits(tl)
    assert errors == []
    assert [e.wait_class for e in assignments[0]] == ["queue"]


def test_orphan_edge_is_reported():
    tl = Timeline()
    tl.record("map.kernel", "node0", 1.0, 3.0)
    # wrong name: no span of that identity exists
    tl.record_wait("queue", "map.q", "map.kernel", "node9", 1.0, 2.0)
    assignments, errors = match_waits(tl)
    assert assignments[0] == []
    assert len(errors) == 1 and "orphan" in errors[0]
    with pytest.raises(ValueError, match="orphan"):
        verify_decomposition(tl)


def test_op_token_disambiguates_concurrent_spans():
    """Two concurrent same-identity transfers: the op token keeps each
    edge with its own span even though the intervals interleave."""
    tl = Timeline()
    tl.record("net.transfer", "0->1", 0.0, 4.0, op=1, tx_wait=1.0,
              fabric_wait=0.0, rx_wait=0.0)
    tl.record("net.transfer", "0->1", 0.0, 6.0, op=2, tx_wait=3.0,
              fabric_wait=0.0, rx_wait=0.0)
    tl.record_wait("shuffle-link", "nic0.tx", "net.transfer", "0->1",
                   0.0, 1.0, op=1)
    tl.record_wait("shuffle-link", "nic0.tx", "net.transfer", "0->1",
                   0.0, 3.0, op=2)
    summary = verify_decomposition(tl)
    assert summary["edges_matched"] == 2
    assert summary["by_class"]["shuffle-link"] == pytest.approx(4.0)


def scan_match(timeline, tol=1e-9):
    """The reference matcher: for every edge, scan every span.  The owner
    is the same-identity span with the greatest ``(t_req, index)`` that
    requested no later than the edge starts and ends no earlier than it."""
    def identity(item):
        return (item.category, item.name, item.meta.get("op"),
                item.meta.get("job"))

    spans = timeline.spans
    assignments = [[] for _ in spans]
    orphans = 0
    for edge in timeline.waits:
        fits = [(span_request_time(span), i) for i, span in enumerate(spans)
                if identity(span) == identity(edge)
                and span_request_time(span) <= edge.start + tol
                and edge.end <= span.end + tol]
        if fits:
            assignments[max(fits)[1]].append(edge)
        else:
            orphans += 1
    return assignments, orphans


def assert_matches_like_a_scan(timeline):
    assignments, errors = match_waits(timeline)
    expected, orphans = scan_match(timeline)
    assert assignments == expected
    assert len(errors) == orphans


def test_matcher_agrees_with_a_scan_on_ties_and_tolerance():
    """match_waits indexes only the identities some edge names and bisects
    ``(t_req, index)`` pairs: equal request times, an edge that fits only
    an earlier span, the tolerance at both ends, and an orphan."""
    tl = Timeline()
    tl.record("map.kernel", "node0", 1.0, 2.0, t_req=0.5)
    tl.record("map.kernel", "node0", 1.0, 4.0, t_req=0.5)   # same t_req
    tl.record("map.kernel", "node0", 3.0, 3.5)              # too short
    tl.record("map.kernel", "node1", 0.0, 9.0)              # nobody waits
    tl.record("reduce.kernel", "node0", 0.0, 9.0)           # on these two
    tl.record_wait("queue", "q", "map.kernel", "node0", 0.5, 1.0)
    tl.record_wait("queue", "q", "map.kernel", "node0", 3.0, 3.9)
    tl.record_wait("queue", "q", "map.kernel", "node0",
                   0.5 - 5e-10, 2.0 + 5e-10)
    tl.record_wait("queue", "q", "map.kernel", "node0", 0.1, 0.4)   # orphan
    assignments, errors = match_waits(tl)
    assert [len(edges) for edges in assignments] == [0, 3, 0, 0, 0]
    assert len(errors) == 1
    assert_matches_like_a_scan(tl)
    assert_matches_like_a_scan(Timeline())


def test_matcher_agrees_with_a_scan_on_real_runs(wc_result):
    assert_matches_like_a_scan(wc_result.timeline)
    plan = FaultPlan.seeded(
        3, n_splits=N_SPLITS, n_nodes=NODES,
        n_partitions=NODES * _wc_config().partitions_per_node,
        map_rate=0.4, reduce_rate=0.2, straggler_rate=0.3)
    faulted = _wc_run(faults=plan,
                      config=_wc_config(speculative_execution=True))
    assert_matches_like_a_scan(faulted.timeline)


def test_overlapping_edges_rejected():
    tl = Timeline()
    tl.record("map.kernel", "node0", 0.0, 4.0)
    tl.record_wait("queue", "a", "map.kernel", "node0", 0.0, 2.0)
    tl.record_wait("queue", "b", "map.kernel", "node0", 1.0, 3.0)
    with pytest.raises(ValueError, match="overlapping"):
        verify_decomposition(tl)


def test_untiled_pre_gap_rejected():
    tl = Timeline()
    tl.record("map.kernel", "node0", 2.0, 3.0, t_req=0.0)
    tl.record_wait("queue", "q", "map.kernel", "node0", 0.0, 1.0)
    with pytest.raises(ValueError, match="unattributed"):
        verify_decomposition(tl)


def test_waits_exceeding_elapsed_rejected():
    tl = Timeline()
    tl.record("map.kernel", "node0", 0.0, 1.0)
    tl.record_wait("queue", "q", "map.kernel", "node0", 0.0, 0.9)
    tl.record_wait("buffer-slot", "p", "map.kernel", "node0", 0.9, 1.5)
    with pytest.raises(ValueError):
        verify_decomposition(tl)


def test_net_transfer_meta_cross_check():
    tl = Timeline()
    tl.record("net.transfer", "0->1", 0.0, 2.0, op=1, tx_wait=0.5,
              fabric_wait=0.25, rx_wait=0.0)
    tl.record_wait("shuffle-link", "nic0.tx", "net.transfer", "0->1",
                   0.0, 0.5, op=1)
    # fabric edge missing 0.25s -> the meta cross-check trips
    with pytest.raises(ValueError, match="meta waits"):
        verify_decomposition(tl)


def test_profile_splits_stages_from_aggregates():
    tl = Timeline()
    tl.record("map.elapsed", "node0", 0.0, 10.0)
    tl.record("map.kernel", "node0", 1.0, 5.0, t_req=0.0)
    tl.record_wait("queue", "map.q", "map.kernel", "node0", 0.0, 1.0)
    prof = causal_profile(tl, elapsed_s=10.0)
    assert prof["schema"] == "glasswing-causal/1"
    assert prof["elapsed_s"] == 10.0
    assert set(prof["stages"]) == {"map.kernel"}
    assert set(prof["aggregates"]) == {"map.elapsed"}
    kernel = prof["stages"]["map.kernel"]
    assert kernel["self_s"] == pytest.approx(4.0)
    assert kernel["wait_s"] == pytest.approx(1.0)
    assert kernel["waits"]["queue"]["resources"]["map.q"] == \
        pytest.approx(1.0)
    assert prof["wait_classes"] == {"queue": pytest.approx(1.0)}
    assert prof["orphan_edges"] == 0
    # the envelope's seconds never leak into the diffable totals
    assert prof["self_s"] == pytest.approx(4.0)
    assert prof["wait_s"] == pytest.approx(1.0)


def test_fork_tags_edges_and_counts_waits_once():
    parent = Timeline()
    fork = parent.fork("jobA")
    fork.record("map.kernel", "node0", 1.0, 2.0, t_req=0.0)
    fork.record_wait("queue", "q", "map.kernel", "node0", 0.0, 1.0)
    assert parent.waits[0].meta["job"] == "jobA"
    assert len(parent.waits) == 1 and len(fork.waits) == 1
    summary = verify_decomposition(parent)
    assert summary["edges_matched"] == 1
    prof = causal_profile(parent)
    assert "jobA" in prof["tree"]


# -- real runs -------------------------------------------------------------

def _wc_config(**kw):
    return JobConfig(chunk_size=CHUNK, input_replication=NODES, **kw)


def _wc_run(faults=None, config=None):
    return run_glasswing(WordCountApp(),
                         {"wiki": wiki_text(INPUT_BYTES, seed=61)},
                         das4_cluster(nodes=NODES), config or _wc_config(),
                         faults=faults)


@functools.lru_cache(maxsize=1)
def _golden():
    return _wc_run()


def test_decomposition_holds_on_wordcount(wc_result):
    summary = verify_decomposition(wc_result.timeline)
    assert summary["edges_matched"] > 0
    assert summary["max_residual"] <= 1e-9
    assert "queue" in summary["by_class"]


def test_decomposition_holds_on_terasort():
    data = teragen(2_000, seed=7)
    res = run_glasswing(TeraSortApp.from_input(data), {"tera": data},
                        das4_cluster(nodes=2),
                        JobConfig(chunk_size=16_384, output_replication=1,
                                  compression=NO_COMPRESSION))
    summary = verify_decomposition(res.timeline)
    assert summary["max_residual"] <= 1e-9


def test_profile_of_real_run_accounts_all_stage_time(wc_result):
    prof = causal_profile(wc_result.timeline,
                          elapsed_s=wc_result.job_time)
    assert prof["orphan_edges"] == 0
    for stage, entry in prof["stages"].items():
        assert entry["self_s"] + entry["wait_s"] == \
            pytest.approx(entry["elapsed_s"], abs=1e-9 * entry["count"]), stage
    assert sum(prof["wait_classes"].values()) == \
        pytest.approx(prof["wait_s"], abs=1e-6)


def test_wait_counter_matches_recorded_edges():
    """glasswing_wait_seconds_total == the summed matched edges."""
    res = _wc_run(config=_wc_config(metrics_interval=0.005))
    summary = verify_decomposition(res.timeline)
    totals = {
        metric.label_dict["class"]: metric.value
        for metric in res.telemetry.registry.sorted_metrics()
        if metric.name == "glasswing_wait_seconds"}
    for cls, seconds in summary["by_class"].items():
        assert totals[cls] == pytest.approx(seconds, abs=1e-9)


# -- the fault matrix (property-tested) ------------------------------------

def check_decomposition_under_faults(seed: int) -> None:
    """Any random fault schedule still satisfies the invariant: crashed
    and re-executed operations leave neither orphan edges nor gaps."""
    g = _golden()
    plan = FaultPlan.seeded(
        seed, n_splits=N_SPLITS, n_nodes=NODES,
        n_partitions=NODES * _wc_config().partitions_per_node,
        map_rate=0.4, reduce_rate=0.2, straggler_rate=0.3,
        node_crash_count=seed % 2,
        crash_window=(0.2 * g.map_time, 0.9 * g.map_time))
    cfg = _wc_config(speculative_execution=bool(seed % 2))
    res = _wc_run(faults=plan, config=cfg)
    summary = verify_decomposition(res.timeline)
    assert summary["max_residual"] <= 1e-9


if HAVE_HYPOTHESIS:

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=2**20))
    def test_decomposition_survives_fault_matrix(seed):
        check_decomposition_under_faults(seed)

else:    # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
    def test_decomposition_survives_fault_matrix(seed):
        check_decomposition_under_faults(seed)
