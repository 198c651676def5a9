"""Unit tests for the pluggable scheduling layer (repro.core.sched).

Covers the policy registry, each policy's placement order, the
deterministic tie-breaking of the affinity assignment (invariant under
replica-list permutation), the fault-tolerance hooks (rehome /
pick_helper) and the heterogeneous device-pool gate.
"""

import pytest

from repro.core.coordinator import Split, make_splits
from repro.storage.backend import make_backend
from repro.core.sched import (SCHEDULER_NAMES, DynamicLocalityScheduler,
                              OpLevelScheduler, Scheduler,
                              StaticAffinityScheduler, affinity_assign,
                              holders_by_split, make_scheduler)
from repro.hw import Cluster
from repro.hw.presets import das4_cluster
from repro.simt import Simulator
from repro.storage.backend import BlockLocation


class StubBackend:
    """Backend exposing only the location map the scheduler reads."""

    def __init__(self, locmap):
        self.locmap = locmap

    def locations(self, path):
        return self.locmap.get(path)


def one_block_splits(spec):
    """``[(length, holders), ...]`` -> one single-block file per split."""
    splits, locmap = [], {}
    for i, (length, holders) in enumerate(spec):
        path = f"f{i}"
        splits.append(Split(index=i, path=path, offset=0, length=length))
        if holders is not None:
            locmap[path] = [BlockLocation(0, length, tuple(holders))]
    return splits, StubBackend(locmap)


def make_dfs_backend(nodes=4, block_size=1000):
    sim = Simulator()
    cluster = Cluster(sim, das4_cluster(nodes=nodes))
    backend = make_backend("dfs", cluster, block_size=block_size,
                           replication=2)
    return sim, cluster, backend


def drain(sched, node_id, phase="map"):
    """All splits ``node_id`` pulls until the policy says stop."""
    out = []
    while True:
        split = sched.next_for(node_id, phase)
        if split is None:
            return out
        out.append(split)


# -- registry --------------------------------------------------------------

def test_registry_names_and_classes():
    assert SCHEDULER_NAMES == ("static-affinity", "dynamic-locality",
                               "oplevel")
    classes = {"static-affinity": StaticAffinityScheduler,
               "dynamic-locality": DynamicLocalityScheduler,
               "oplevel": OpLevelScheduler}
    for name, cls in classes.items():
        sched = make_scheduler(name)
        assert type(sched) is cls
        assert sched.name == name


def test_registry_rejects_unknown_policy():
    with pytest.raises(ValueError, match="unknown scheduler"):
        make_scheduler("fifo")


# -- static policy: the extracted pre-refactor behaviour -------------------

def test_static_pull_order_equals_affinity_assignment():
    sim, cluster, backend = make_dfs_backend(nodes=4)
    backend.install("f", b"x" * 12000)
    splits = make_splits(backend, ["f"], chunk_size=1000)
    assignment = affinity_assign(splits, backend, 4)
    sched = make_scheduler("static-affinity")
    sched.plan(splits, backend, 4)
    for node_id, expected in assignment.items():
        assert drain(sched, node_id) == expected
    assert sched.queue_depth() == 0
    assert all(drain(sched, n) == [] for n in range(4))


def test_static_does_not_steal():
    """A node with an empty queue gets nothing even when others have
    backlog — the defining difference from the dynamic policies."""
    splits, backend = one_block_splits([(100, (0,)), (100, (0,))])
    sched = make_scheduler("static-affinity")
    sched.plan(splits, backend, 2)
    assert sched.next_for(1) is None
    assert drain(sched, 0) == splits


# -- deterministic tie-breaking (replica-permutation regression) -----------

def test_affinity_invariant_under_replica_permutation():
    """Equally loaded replica holders tie-break on node id, so permuting
    every replica list leaves the assignment bit-identical."""
    lengths = [100] * 9
    holder_sets = [(0, 1, 2), (2, 1, 0), (1, 2, 0),
                   (0, 2), (2, 0), (1, 0),
                   (2, 1), (0, 1), (1, 2)]
    splits, _ = one_block_splits([(n, h) for n, h
                                  in zip(lengths, holder_sets)])
    baseline = None
    for rotation in range(3):
        locmap = {}
        for i, holders in enumerate(holder_sets):
            perm = tuple(holders[rotation % len(holders):]
                         + holders[:rotation % len(holders)])
            locmap[f"f{i}"] = [BlockLocation(0, lengths[i], perm)]
        assignment = affinity_assign(splits, StubBackend(locmap), 3)
        shape = {n: [s.index for s in q] for n, q in assignment.items()}
        if baseline is None:
            baseline = shape
        assert shape == baseline


def test_holders_by_split_omits_unknown():
    splits, backend = one_block_splits([(10, (0,)), (10, None)])
    holders = holders_by_split(splits, backend)
    assert holders == {0: frozenset({0})}


# -- dynamic policy --------------------------------------------------------

DYN_SPEC = [(100, (0,)), (300, (0,)), (200, (1,)), (50, (0, 1))]


def test_dynamic_prefers_local_then_steals_oldest():
    splits, backend = one_block_splits(DYN_SPEC)
    sched = make_scheduler("dynamic-locality")
    sched.plan(splits, backend, 2)
    # node 1's locals are s2 and s3; drained, it steals the *oldest*
    # remote split (s0), then s1.
    assert [s.index for s in drain(sched, 1)] == [2, 3, 0, 1]
    assert sched.locality_hits == 2 and sched.locality_misses == 2


def test_dynamic_interleaved_pull_is_all_local():
    splits, backend = one_block_splits(DYN_SPEC)
    sched = make_scheduler("dynamic-locality")
    sched.plan(splits, backend, 2)
    order = [sched.next_for(0).index, sched.next_for(1).index,
             sched.next_for(1).index, sched.next_for(0).index]
    assert order == [0, 2, 3, 1]
    assert sched.locality_misses == 0
    assert sched.locality_hit_rate == 1.0


# -- oplevel policy --------------------------------------------------------

def test_oplevel_hands_out_largest_local_first():
    splits, backend = one_block_splits(DYN_SPEC)
    sched = make_scheduler("oplevel")
    sched.plan(splits, backend, 2)
    assert sched.next_for(0).index == 1          # 300 is 0's largest local
    assert sched.next_for(1).index == 2          # 200 is 1's largest local
    assert sched.next_for(1).index == 3          # local 50 beats remote 100
    assert sched.next_for(1).index == 0          # steal the remainder
    assert sched.next_for(0) is None


def test_oplevel_steals_largest_remote():
    splits, backend = one_block_splits([(10, (0,)), (500, (0,)),
                                        (90, (0,))])
    sched = make_scheduler("oplevel")
    sched.plan(splits, backend, 2)
    assert sched.next_for(1).index == 1          # largest anywhere


def test_oplevel_equal_lengths_break_ties_on_lowest_index():
    splits, backend = one_block_splits([(100, (0,)), (100, (0,)),
                                        (100, (0,))])
    sched = make_scheduler("oplevel")
    sched.plan(splits, backend, 2)
    assert [s.index for s in drain(sched, 0)] == [0, 1, 2]


# -- fault-tolerance hooks -------------------------------------------------

class StubRegistry:
    def __init__(self, owned):
        self._owned = owned

    def owned_by(self, node_id):
        return self._owned.get(node_id, [])


def test_base_rehome_is_the_deterministic_spread():
    sched = Scheduler()
    assert [sched.rehome(pid, [0, 2, 3]) for pid in range(6)] == \
        [0, 2, 3, 0, 2, 3]


def test_dynamic_rehome_picks_least_loaded_owner():
    sched = make_scheduler("dynamic-locality")
    registry = StubRegistry({0: [1, 2, 3], 2: [4], 3: [5, 6]})
    assert sched.rehome(9, [0, 2, 3], registry) == 2
    # without a registry it falls back to the deterministic spread
    assert sched.rehome(9, [0, 2, 3]) == 0


def test_pick_helper_least_loaded_with_locality_preferences():
    active = {0: 0, 1: 2, 2: 1}
    base = Scheduler()
    assert base.pick_helper(0, [0, 1, 2], active) == 2
    assert base.pick_helper(0, [0], active) is None

    splits, backend = one_block_splits([(10, (1,))])
    dyn = make_scheduler("dynamic-locality")
    dyn.plan(splits, backend, 3)
    # locality first: the busy holder still wins under dynamic-locality…
    assert dyn.pick_helper(0, [0, 1, 2], active, split_index=0) == 1
    op = make_scheduler("oplevel")
    op.plan(splits, backend, 3)
    # …but oplevel puts global balance first.
    assert op.pick_helper(0, [0, 1, 2], active, split_index=0) == 2
    assert dyn.speculative_placements == 1
    assert op.speculative_placements == 1


def test_recovery_plan_targets_survivors_only():
    splits, backend = one_block_splits([(100, (0,)), (100, (1,)),
                                        (100, (2,))])
    for name in SCHEDULER_NAMES:
        sched = make_scheduler(name)
        sched.plan([], backend, 3)
        sched.plan_recovery(splits, backend, survivors=[0, 2])
        nodes = sched.recovery_nodes()
        assert nodes and set(nodes) <= {0, 2}
        pulled = [s for n in nodes for s in drain(sched, n, "recovery")]
        assert sorted(s.index for s in pulled) == [0, 1, 2]


# -- heterogeneous device-pool gate ---------------------------------------

def run_gate(gen):
    """Drive a pool_acquire generator that must not need to wait."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("pool gate yielded with no contention")


def pool_sched(n_splits, length=100):
    splits, backend = one_block_splits([(length, (0,))] * n_splits)
    sched = make_scheduler("static-affinity", sim=Simulator())
    sched.plan(splits, backend, 1)
    sched.register_device(0, "gpu", speed=20.0)
    sched.register_device(0, "cpu", speed=1.0)
    return sched


def test_pool_fastest_device_pulls_freely():
    sched = pool_sched(3)
    got = [run_gate(sched.pool_acquire(0, "gpu")) for _ in range(4)]
    assert [s.index for s in got[:3]] == [0, 1, 2]
    assert got[3] is None


def test_pool_slow_device_retires_on_small_backlog():
    # One op on the 20x-slower CPU (100/1 = 100) outlasts the pool
    # draining the whole 10-split backlog (1000/20 = 50): bow out.
    sched = pool_sched(10)
    assert run_gate(sched.pool_acquire(0, "cpu")) is None
    assert sched.queue_depth() == 10        # nothing consumed


def test_pool_slow_device_contributes_on_large_backlog():
    # 30 splits: 100/1 < 3000/20, so the CPU takes exactly one op and
    # its pipeline stays capped at one in flight until it completes.
    sched = pool_sched(30)
    split = run_gate(sched.pool_acquire(0, "cpu"))
    assert split is not None
    gen = sched.pool_acquire(0, "cpu")
    next(gen)                               # blocks: one op in flight
    sched.note_done(0, "cpu", float(split.length))
    with pytest.raises(StopIteration) as stop:
        gen.send(None)                      # woken; re-evaluates the gate
    follow_up = stop.value.value
    assert follow_up is not None and follow_up.index != split.index


def test_pool_placements_are_tagged_with_device():
    from repro.simt.trace import Timeline
    sim = Simulator()
    timeline = Timeline()
    splits, backend = one_block_splits([(100, (0,))] * 25)
    sched = make_scheduler("static-affinity", sim=sim, timeline=timeline)
    sched.plan(splits, backend, 1)
    sched.register_device(0, "gpu", speed=20.0)
    run_gate(sched.pool_acquire(0, "gpu"))
    spans = [s for s in timeline.spans if s.category == "sched.place"]
    assert len(spans) == 1
    assert spans[0].meta["device"] == "gpu"
    assert spans[0].meta["policy"] == "static-affinity"
    assert spans[0].meta["local"] is True
