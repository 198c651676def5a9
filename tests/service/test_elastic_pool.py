"""The server's shared active/standby lists: scale events are a *cluster*
property, so one scale-out/in must reach every running tenant's job,
later dispatches must snapshot the new active set, and a neighbour's
byte attribution must never move when another tenant's work is
re-homed.
"""

import pytest

from repro.apps import WordCountApp
from repro.apps.datagen import wiki_text
from repro.core import JobConfig, run_glasswing
from repro.hw.presets import das4_cluster
from repro.service import JobServer, JobSubmission, ServicePolicy

NODES = 4
# DFS + replication so drained nodes' splits stay readable; no scheduler
# pin — CI's service matrix swaps the policy via $REPRO_SCHEDULER.
CONFIG = JobConfig(chunk_size=4096, partitions_per_node=1, storage="dfs",
                   input_replication=3)


def make_server(active_nodes=None, policy=None):
    return JobServer(das4_cluster(nodes=NODES), policy=policy, config=CONFIG,
                     active_nodes=active_nodes)


def wc_job(name, tenant="default", nbytes=24 * 1024, seed=0, submit_at=0.0):
    return JobSubmission(name=name, app=WordCountApp(),
                         inputs={f"{name}.txt": wiki_text(nbytes, seed=seed)},
                         tenant=tenant, submit_at=submit_at)


def test_scale_out_reaches_every_running_tenant():
    server = make_server(active_nodes=3)
    server.submit(wc_job("alice-j", tenant="alice", seed=1))
    server.submit(wc_job("bob-j", tenant="bob", seed=2))
    server.scale_out(at=2e-4)
    result = server.run()
    assert len(result.completed) == 2
    assert server.active == [0, 1, 2, 3] and server.standby == []
    scales = result.timeline.by_category("svc.scale")
    assert [(s.meta["direction"], s.meta["node"], s.start)
            for s in scales] == [("out", 3, pytest.approx(2e-4))]
    for name in ("alice-j", "bob-j"):
        res = result.job(name).result
        assert res.stats["joined_nodes"] == [3]
        assert res.stats["leaked_buffer_slots"] == 0


def test_scale_in_drains_only_rehomeable_work():
    """Both tenants lose node 3 mid-run: the drained node's unfinished
    work re-homes (re-push preferred), outputs stay correct and nothing
    dies."""
    server = make_server()
    server.submit(wc_job("alice-j", tenant="alice", seed=3))
    server.submit(wc_job("bob-j", tenant="bob", seed=4))
    server.scale_in(at=2e-4)
    result = server.run()
    assert len(result.completed) == 2
    assert server.active == [0, 1, 2] and server.standby == [3]
    for name in ("alice-j", "bob-j"):
        res = result.job(name).result
        assert res.stats["departed_nodes"] == [3]
        assert res.stats["dead_nodes"] == []
        assert res.stats["leaked_buffer_slots"] == 0
        assert res.output_pairs()


def test_neighbour_byte_attribution_is_untouched():
    """Alice's job rides out a scale-in; Bob's identical job runs solo
    on the full pool before the event fires.  Bob's network bytes must
    equal his solo baseline — a neighbour's churn never bills you."""
    solo = run_glasswing(WordCountApp(),
                         {"bob-j.txt": wiki_text(24 * 1024, seed=6)},
                         das4_cluster(nodes=NODES), CONFIG)

    server = make_server()
    server.submit(wc_job("bob-j", tenant="bob", seed=6))
    # Alice arrives after the scale-in, dispatching onto the shrunken
    # pool; Bob's run completed on the full pool long before.
    bob_time = solo.job_time
    server.scale_in(at=bob_time * 2)
    server.submit(wc_job("alice-j", tenant="alice", seed=5,
                         submit_at=bob_time * 3))
    result = server.run()
    assert len(result.completed) == 2
    bob = result.job("bob-j").result
    assert bob.stats["network_bytes"] == solo.stats["network_bytes"]
    assert bob.stats["departed_nodes"] == []
    assert sorted(bob.output_pairs()) == sorted(solo.output_pairs())


def test_later_dispatch_snapshots_the_scaled_pool():
    """A job dispatched after a scale-in starts on the shrunken active
    set — it does not transition mid-run, it is simply born smaller."""
    server = make_server(policy=ServicePolicy(max_running=1))
    server.submit(wc_job("first", seed=7))
    server.scale_in(at=1e-5)    # fires while `first` runs
    server.submit(wc_job("second", seed=8, submit_at=2e-5))
    result = server.run()
    first, second = result.job("first").result, result.job("second").result
    assert first.stats["departed_nodes"] == [3]
    # `second` dispatched after the event: node 3 was never part of it.
    assert second.stats["initial_active_nodes"] == 3
    assert second.stats["departed_nodes"] == []
    assert second.stats["final_active_nodes"] == 3


def test_scale_events_are_recorded_on_the_pool_ledger():
    """The pool's scale history is the server's ``svc.scale`` spans."""
    server = make_server(active_nodes=2)
    server.submit(wc_job("j", seed=9))
    server.scale_out(at=1e-4)
    server.scale_out(at=2e-4, node=3)
    server.scale_in(at=3e-4, node=1)
    result = server.run()
    assert len(result.completed) == 1
    scales = result.timeline.by_category("svc.scale")
    assert [s.meta["direction"] for s in scales] == ["out", "out", "in"]
    assert [s.meta["node"] for s in scales] == [2, 3, 1]
    assert [s.meta["active"] for s in scales] == [3, 4, 3]
    assert server.active == [0, 2, 3]
    assert server.standby == [1]


def test_scale_after_start_raises():
    server = make_server()
    server.submit(wc_job("j", seed=10))
    server.run()
    with pytest.raises(RuntimeError):
        server.scale_out(at=0.1)


def test_pool_is_exported_from_the_service_package():
    """The shared pool is two plain lists on the exported ``JobServer``,
    resolved once from ``active_nodes``."""
    server = make_server(active_nodes=2)
    assert server.active == [0, 1] and server.standby == [2, 3]
    with pytest.raises(ValueError):
        make_server(active_nodes=5)
