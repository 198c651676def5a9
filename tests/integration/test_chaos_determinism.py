"""Chaos determinism: the same seed and membership schedule replays to
a bit-identical simulation — span timeline, stats report and the bench
point dicts the regression gate compares (0% drift by construction).

This is the property that makes ``BENCH_elastic.json`` replayable: if
any membership code path consulted wall-clock, iteration order of an
unordered container, or un-seeded randomness, these tests would flake
immediately.
"""

from repro.apps import WordCountApp
from repro.apps.datagen import wiki_text
from repro.core import JobConfig, run_glasswing
from repro.core.faults import (CoordinatorCrash, FaultPlan, NodeJoin,
                               NodeLeave)
from repro.hw.presets import das4_cluster

from repro.bench import elastic
from repro.bench.regress import BASELINES, compare_point

NODES = 4
FAILOVER = 2e-4


def _spans(res):
    return [(s.category, s.name, s.start, s.end) for s in res.timeline.spans]


def _run_chaos():
    """One job under the full chaos menu: a join, a drain and a
    coordinator failover, all mid-map."""
    inputs = {"wiki": wiki_text(150_000, seed=121)}
    cfg = JobConfig(chunk_size=16_384, storage="dfs", input_replication=3,
                    active_nodes=3, coordinator_replicas=2,
                    failover_timeout=FAILOVER)
    probe = run_glasswing(WordCountApp(), inputs, das4_cluster(nodes=NODES),
                          cfg)
    plan = FaultPlan(
        node_joins=(NodeJoin(None, 0.3 * probe.map_time),),
        node_leaves=(NodeLeave(None, 0.5 * probe.map_time),),
        coordinator_crashes=(CoordinatorCrash(0.4 * probe.map_time),))
    return run_glasswing(WordCountApp(), inputs, das4_cluster(nodes=NODES),
                         cfg, faults=plan)


def test_chaos_timeline_replays_bit_identically():
    a, b = _run_chaos(), _run_chaos()
    assert a.job_time == b.job_time
    assert a.stats == b.stats
    assert a.stats["membership_events"] == b.stats["membership_events"]
    assert sorted(a.output_pairs()) == sorted(b.output_pairs())
    assert _spans(a) == _spans(b)
    # The chaos actually happened — this is not a vacuous replay.
    assert a.stats["joined_nodes"] and a.stats["departed_nodes"]
    assert a.stats["coordinator_failovers"] == 1


def test_seeded_membership_plan_replays_bit_identically():
    inputs = {"wiki": wiki_text(150_000, seed=122)}
    cfg = JobConfig(chunk_size=16_384, storage="dfs", input_replication=3,
                    active_nodes=2, coordinator_replicas=3,
                    failover_timeout=FAILOVER)

    def run_once():
        plan = FaultPlan.seeded(4242, n_splits=8, map_rate=0.2,
                                node_join_count=2, node_leave_count=1,
                                coordinator_crash_count=1,
                                membership_window=(0.0002, 0.002))
        return run_glasswing(WordCountApp(), inputs,
                             das4_cluster(nodes=NODES), cfg, faults=plan)

    a, b = run_once(), run_once()
    assert a.stats == b.stats
    assert _spans(a) == _spans(b)


def test_elastic_bench_points_replay_at_zero_drift():
    """Every point of the elastic bench, regenerated twice, drifts 0%
    on every gated metric — exactly what ``repro.bench.regress`` does
    against the committed ``BENCH_elastic.json``, minus the file."""
    for app in ("elastic:double", "elastic:halve", "elastic:failover"):
        first = elastic.elastic_point(app, kilobytes=48)
        second = elastic.elastic_point(app, kilobytes=48)
        rows = compare_point(first, second, BASELINES["elastic"].tolerances)
        assert rows, app    # the gate actually compared something
        assert all(r["ok"] and r["deviation"] == 0.0 for r in rows), \
            (app, [r for r in rows if not r["ok"] or r["deviation"]])
        # wall_s is the one legitimately noisy key; everything else in
        # the point must be literally equal.
        strip = lambda p: {k: v for k, v in p.items() if k != "wall_s"}
        assert strip(first) == strip(second)
