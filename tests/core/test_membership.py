"""Unit tests for the elastic-membership primitives: the four-state
:class:`ClusterHealth` machine, the membership fault dataclasses, the
replicated :class:`CoordinatorGroup`, the pinned partition space of
``ShuffleRegistry(nodes=...)`` and the one scale rule
(:func:`pick_join` / :func:`pick_leave`) with the membership check
:func:`initial_active`.  End-to-end output invariance lives in
tests/core/test_chaos_matrix.py and test_chaos_properties.py.
"""

import pytest

from repro.core.coordinator import ShuffleRegistry
from repro.core.faults import (ClusterHealth, CoordinatorCrash, FaultPlan,
                               NodeJoin, NodeLeave)
from repro.core.membership import (CoordinatorGroup, ElasticPolicy,
                                   initial_active, pick_join, pick_leave)
from repro.simt.core import Simulator


# ---------------------------------------------------------------------------
# ClusterHealth: active / standby / departed / dead
# ---------------------------------------------------------------------------

class TestClusterHealth:
    def test_default_activates_everyone(self):
        h = ClusterHealth(4)
        assert h.inactive == set()
        assert h.alive_nodes == [0, 1, 2, 3]
        assert all(h.storage_alive(n) for n in range(4))
        assert not h.needs_recovery

    def test_restricted_active_set(self):
        h = ClusterHealth(4, active=[0, 2])
        assert h.inactive == {1, 3}
        assert h.alive_nodes == [0, 2]
        # Standbys neither take work nor serve bytes.
        assert not h.alive(1) and not h.storage_alive(1)

    def test_activate_moves_standby_to_active(self):
        h = ClusterHealth(4, active=[0, 1])
        h.activate(2, at=1.5)
        assert h.alive(2) and h.storage_alive(2)
        assert h.joined_at == {2: 1.5}
        assert h.inactive == {3}

    def test_activate_rejects_non_standby(self):
        h = ClusterHealth(4, active=[0, 1])
        with pytest.raises(ValueError):
            h.activate(0, at=0.0)
        with pytest.raises(ValueError):
            h.activate(7, at=0.0)

    def test_departed_is_storage_alive_but_not_alive(self):
        h = ClusterHealth(4)
        h.mark_departed(3, at=2.0)
        assert not h.alive(3)
        assert h.storage_alive(3)        # durable spill stays readable
        assert h.departed_nodes == [3]
        assert h.needs_recovery and not h.dead_nodes

    def test_dead_is_neither(self):
        h = ClusterHealth(4)
        h.mark_dead(2, at=1.0)
        assert not h.alive(2) and not h.storage_alive(2)
        assert h.dead_nodes and h.needs_recovery

    def test_standby_cannot_depart(self):
        h = ClusterHealth(4, active=[0, 1])
        with pytest.raises(ValueError):
            h.mark_departed(3, at=0.0)

    def test_gone_nodes_unions_dead_and_departed(self):
        h = ClusterHealth(4)
        h.mark_dead(1, at=1.0)
        h.mark_departed(3, at=2.0)
        assert h.gone_nodes == [1, 3]
        assert h.alive_nodes == [0, 2]

    def test_invalid_active_ids_raise(self):
        with pytest.raises(ValueError):
            ClusterHealth(4, active=[])
        with pytest.raises(ValueError):
            ClusterHealth(4, active=[0, 4])


# ---------------------------------------------------------------------------
# Fault dataclasses and FaultPlan integration
# ---------------------------------------------------------------------------

class TestMembershipFaults:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            NodeJoin(-1, 0.1)
        with pytest.raises(ValueError):
            NodeJoin(0, -0.1)
        with pytest.raises(ValueError):
            NodeLeave(-2, 0.1)
        with pytest.raises(ValueError):
            CoordinatorCrash(-1.0)
        # node=None (auto-resolve) is always legal
        NodeJoin(None, 0.0)
        NodeLeave(None, 0.0)

    def test_plan_rejects_duplicate_explicit_nodes(self):
        with pytest.raises(ValueError):
            FaultPlan(node_joins=(NodeJoin(4, 0.1), NodeJoin(4, 0.2)))
        with pytest.raises(ValueError):
            FaultPlan(node_leaves=(NodeLeave(2, 0.1), NodeLeave(2, 0.2)))
        # Two auto-resolved events are fine — they pick distinct nodes
        # at fire time.
        FaultPlan(node_joins=(NodeJoin(None, 0.1), NodeJoin(None, 0.2)))

    def test_seeded_membership_draws_do_not_shift_classic_schedule(self):
        """The membership draws are appended after the classic ones, so
        requesting churn must leave the seed's crash/straggler schedule
        byte-identical (back-compat for committed seeds)."""
        kwargs = dict(n_splits=32, n_nodes=4, n_partitions=8,
                      map_rate=0.3, reduce_rate=0.2, straggler_rate=0.3,
                      node_crash_count=1)
        classic = FaultPlan.seeded(99, **kwargs)
        churned = FaultPlan.seeded(99, node_join_count=2,
                                   node_leave_count=1,
                                   coordinator_crash_count=1, **kwargs)
        assert churned.map_failures == classic.map_failures
        assert churned.reduce_failures == classic.reduce_failures
        assert churned.stragglers == classic.stragglers
        assert churned.node_crashes == classic.node_crashes
        assert churned.progress_at_failure == classic.progress_at_failure
        assert len(churned.node_joins) == 2
        assert len(churned.node_leaves) == 1
        assert len(churned.coordinator_crashes) == 1
        assert all(e.node is None for e in churned.node_joins)

    def test_seeded_membership_is_reproducible(self):
        a = FaultPlan.seeded(7, n_splits=8, node_join_count=3,
                             node_leave_count=2, coordinator_crash_count=1,
                             membership_window=(0.1, 0.9))
        b = FaultPlan.seeded(7, n_splits=8, node_join_count=3,
                             node_leave_count=2, coordinator_crash_count=1,
                             membership_window=(0.1, 0.9))
        assert a.node_joins == b.node_joins
        assert a.node_leaves == b.node_leaves
        assert a.coordinator_crashes == b.coordinator_crashes
        assert all(0.1 <= e.at <= 0.9 for e in a.node_joins + a.node_leaves)


# ---------------------------------------------------------------------------
# CoordinatorGroup: deterministic leader election
# ---------------------------------------------------------------------------

def _drive(gen):
    """Run one driver generator to completion on a fresh simulator."""
    sim = Simulator()
    sim.process(gen(sim), name="driver")
    sim.run()
    return sim


class TestCoordinatorGroup:
    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CoordinatorGroup(sim, replicas=0)
        with pytest.raises(ValueError):
            CoordinatorGroup(sim, failover_timeout=-1.0)

    def test_healthy_leader_barrier_is_free(self):
        seen = []

        def driver(sim):
            group = CoordinatorGroup(sim, replicas=3, failover_timeout=0.5)
            leader = yield from group.require_leader()
            seen.append((sim.now, leader, group.failovers, group.epoch))
            yield sim.timeout(0)    # keep the generator a generator

        _drive(driver)
        assert seen == [(0.0, 0, 0, 0)]

    def test_concurrent_waiters_share_one_election(self):
        """N barriers queued behind one crash charge the failover delay
        exactly once and all see the same new leader."""
        seen = []

        def waiter(sim, group):
            leader = yield from group.require_leader()
            seen.append((sim.now, leader))

        def driver(sim):
            group = CoordinatorGroup(sim, replicas=3, failover_timeout=0.25)
            yield sim.timeout(1.0)
            assert group.crash_leader() == 0
            for _ in range(3):
                sim.process(waiter(sim, group))
            yield sim.timeout(1.0)
            assert group.failovers == 1
            assert group.epoch == 1
            assert group.alive_replicas() == [1, 2]

        _drive(driver)
        assert seen == [(1.25, 1)] * 3

    def test_crash_mid_election_kills_would_be_winner(self):
        """A second crash landing inside the election window removes the
        replica that was about to win; the election still completes in
        one delay and installs the next survivor."""
        seen = []

        def waiter(sim, group):
            leader = yield from group.require_leader()
            seen.append((sim.now, leader))

        def driver(sim):
            group = CoordinatorGroup(sim, replicas=3, failover_timeout=0.2)
            yield sim.timeout(1.0)
            group.crash_leader()              # kills 0
            sim.process(waiter(sim, group))
            yield sim.timeout(0.1)            # mid-election
            assert group.crash_leader() == 1  # kills the would-be winner
            yield sim.timeout(1.0)
            assert group.leader == 2
            assert group.failovers == 1       # still one charge

        _drive(driver)
        assert seen == [(1.2, 2)]

    def test_all_replicas_dead_raises(self):
        errors = []

        def driver(sim):
            group = CoordinatorGroup(sim, replicas=1, failover_timeout=0.1)
            group.crash_leader()
            try:
                yield from group.require_leader()
            except RuntimeError as exc:
                errors.append(str(exc))

        _drive(driver)
        assert len(errors) == 1
        assert "every coordinator replica is dead" in errors[0]

    def test_crash_with_no_survivors_returns_none(self):
        sim = Simulator()
        group = CoordinatorGroup(sim, replicas=1)
        assert group.crash_leader() == 0
        assert group.crash_leader() is None


# ---------------------------------------------------------------------------
# ShuffleRegistry: the partition space is pinned to the initial actives
# ---------------------------------------------------------------------------

class TestPinnedPartitionSpace:
    def test_restricted_registry_matches_small_cluster(self):
        """An 8-node registry restricted to nodes 0..3 partitions the key
        space exactly like a 4-node cluster — the invariant that makes
        chaos output byte-identical to the static half-cluster run."""
        small = ShuffleRegistry(4, 2)
        restricted = ShuffleRegistry(8, 2, nodes=[0, 1, 2, 3])
        assert restricted.total_partitions == small.total_partitions == 8
        assert restricted.owners.tolist() == small.owners.tolist()

    def test_owners_cycle_over_the_active_set(self):
        reg = ShuffleRegistry(8, 1, nodes=[1, 5, 6])
        assert reg.total_partitions == 3
        assert reg.owners.tolist() == [1, 5, 6]
        assert reg.owned_by(5) == [1]

    def test_invalid_nodes_raise(self):
        with pytest.raises(ValueError):
            ShuffleRegistry(4, 2, nodes=[])
        with pytest.raises(ValueError):
            ShuffleRegistry(4, 2, nodes=[0, 4])


# ---------------------------------------------------------------------------
# ElasticPolicy / the scale rule
# ---------------------------------------------------------------------------

class TestElasticPolicy:
    def test_defaults_are_valid(self):
        ElasticPolicy()

    @pytest.mark.parametrize("kwargs", [
        dict(min_nodes=0),
        dict(min_nodes=4, max_nodes=2),
    ])
    def test_invalid_policies_raise(self, kwargs):
        with pytest.raises(ValueError):
            ElasticPolicy(**kwargs)


class TestScaleRule:
    def test_default_pool_is_fully_active(self):
        assert initial_active(4) == [0, 1, 2, 3]

    def test_count_and_sequence_forms(self):
        assert initial_active(8, 3) == [0, 1, 2]
        assert initial_active(8, [6, 2, 2]) == [2, 6]

    def test_validation(self):
        with pytest.raises(ValueError):
            initial_active(0)
        with pytest.raises(ValueError):
            initial_active(4, 0)
        with pytest.raises(ValueError):
            initial_active(4, 5)
        with pytest.raises(ValueError):
            initial_active(4, [0, 9])

    def test_scale_out_prefers_lowest_standby(self):
        assert pick_join([5, 2, 3]) == 2
        assert pick_join({4, 3}) == 3           # a health view's set
        assert pick_join([2, 3, 4, 5], node=5) == 5

    def test_scale_in_prefers_highest_active(self):
        assert pick_leave([0, 1, 2, 3]) == 3
        assert pick_leave([0, 1, 2], node=1) == 1

    def test_pool_never_drains_its_last_node(self):
        assert pick_leave([0]) is None
        assert pick_leave([2], node=2) is None
        assert pick_leave([]) is None

    def test_noop_events_are_not_recorded(self):
        assert pick_join([]) is None              # nothing on standby
        assert pick_join([], node=1) is None
        assert pick_join([2, 3], node=1) is None  # not standing by
        assert pick_leave([0, 1], node=7) is None  # not active

    def test_round_trip_is_deterministic(self):
        active, standby = [0, 1, 2, 3], [4, 5, 6, 7]
        picked = []
        for pick, gains, loses in ((pick_join, active, standby),
                                   (pick_leave, standby, active),
                                   (pick_join, active, standby)):
            node = pick(loses)
            loses.remove(node)
            gains.append(node)
            gains.sort()
            picked.append(node)
        assert picked == [4, 4, 4]
        assert active == [0, 1, 2, 3, 4]
        assert standby == [5, 6, 7]
