"""Tests for input splitting and affinity-aware assignment."""

import pytest

from repro.core.coordinator import Split, make_splits
from repro.core.sched.affinity import affinity_assign
from repro.storage.backend import make_backend
from repro.hw import Cluster
from repro.hw.presets import das4_cluster
from repro.simt import Simulator


def make_dfs_backend(nodes=4, block_size=1000):
    sim = Simulator()
    cluster = Cluster(sim, das4_cluster(nodes=nodes))
    backend = make_backend("dfs", cluster, block_size=block_size,
                           replication=2)
    return sim, cluster, backend


def test_make_splits_covers_file():
    sim, cluster, backend = make_dfs_backend()
    backend.install("f", b"x" * 3500)
    splits = make_splits(backend, ["f"], chunk_size=1000)
    assert [s.length for s in splits] == [1000, 1000, 1000, 500]
    assert [s.offset for s in splits] == [0, 1000, 2000, 3000]
    assert all(s.path == "f" for s in splits)
    assert [s.index for s in splits] == [0, 1, 2, 3]


def test_make_splits_multiple_files():
    sim, cluster, backend = make_dfs_backend()
    backend.install("a", b"x" * 1500)
    backend.install("b", b"y" * 800)
    splits = make_splits(backend, ["a", "b"], chunk_size=1000)
    assert len(splits) == 3
    assert splits[2].path == "b"
    assert [s.index for s in splits] == [0, 1, 2]


def test_record_alignment():
    sim, cluster, backend = make_dfs_backend()
    backend.install("f", b"z" * 1000)
    splits = make_splits(backend, ["f"], chunk_size=350, record_size=100)
    # 350 -> 300 (aligned down to record multiple)
    assert all(s.offset % 100 == 0 for s in splits)
    assert sum(s.length for s in splits) == 1000


def test_record_larger_than_chunk_rejected():
    sim, cluster, backend = make_dfs_backend()
    backend.install("f", b"z" * 1000)
    with pytest.raises(ValueError):
        make_splits(backend, ["f"], chunk_size=50, record_size=100)


def test_affinity_assignment_prefers_replica_holders():
    sim, cluster, backend = make_dfs_backend(nodes=4, block_size=1000)
    backend.install("f", b"x" * 8000)
    splits = make_splits(backend, ["f"], chunk_size=1000)
    assignment = affinity_assign(splits, backend, 4)
    locs = backend.locations("f")
    for node_id, assigned in assignment.items():
        for split in assigned:
            holders = next(l.replicas for l in locs
                           if l.offset <= split.offset < l.offset + l.length)
            assert node_id in holders


def test_assignment_balances_load():
    sim, cluster, backend = make_dfs_backend(nodes=4, block_size=1000)
    backend.install("f", b"x" * 16000)
    splits = make_splits(backend, ["f"], chunk_size=1000)
    assignment = affinity_assign(splits, backend, 4)
    sizes = [len(v) for v in assignment.values()]
    assert max(sizes) - min(sizes) <= 2


def test_round_robin_without_locality():
    sim, cluster, _ = make_dfs_backend(nodes=3)
    local = make_backend("local", cluster)
    local.install("f", b"x" * 9000)
    splits = make_splits(local, ["f"], chunk_size=1000)
    assignment = affinity_assign(splits, local, 3)
    assert [len(v) for v in assignment.values()] == [3, 3, 3]


def test_every_split_assigned_exactly_once():
    sim, cluster, backend = make_dfs_backend(nodes=4)
    backend.install("f", b"x" * 12345)
    splits = make_splits(backend, ["f"], chunk_size=777)
    assignment = affinity_assign(splits, backend, 4)
    seen = sorted(s.index for v in assignment.values() for s in v)
    assert seen == [s.index for s in splits]


def test_chunk_size_validation():
    sim, cluster, backend = make_dfs_backend()
    backend.install("f", b"x")
    with pytest.raises(ValueError):
        make_splits(backend, ["f"], chunk_size=0)
