"""Tests for the storage backends the engines program against."""

import pytest

from repro.storage import DFS, LocalBackend, make_backend
from repro.hw import Cluster
from repro.hw.presets import das4_cluster
from repro.simt import Simulator


def make_cluster(n=3):
    sim = Simulator()
    return sim, Cluster(sim, das4_cluster(nodes=n))


def drive(sim, gen):
    p = sim.process(gen)
    sim.run()
    return p.value


def test_factory_dispatch():
    sim, cluster = make_cluster()
    assert isinstance(make_backend("dfs", cluster), DFS)
    assert isinstance(make_backend("local", cluster), LocalBackend)
    with pytest.raises(ValueError):
        make_backend("s3", cluster)


def test_dfs_install_is_zero_time_and_readable():
    sim, cluster = make_cluster()
    be = make_backend("dfs", cluster, block_size=1000, replication=2)
    data = bytes(range(256)) * 10
    be.install("f", data)
    assert sim.now == 0.0
    assert be.size("f") == len(data)
    got = drive(sim, be.read(1, "f", 100, 500))
    assert got == data[100:600]
    assert sim.now > 0.0  # reading costs time


def test_dfs_install_rejects_duplicates():
    sim, cluster = make_cluster()
    be = make_backend("dfs", cluster)
    be.install("f", b"x")
    with pytest.raises(FileExistsError):
        be.install("f", b"y")


def test_dfs_locations_spread_over_cluster():
    sim, cluster = make_cluster(n=4)
    be = make_backend("dfs", cluster, block_size=100, replication=2)
    be.install("f", b"z" * 1000)
    locs = be.locations("f")
    assert len(locs) == 10
    primaries = {l.replicas[0] for l in locs}
    assert len(primaries) == 4  # install spreads "writers" round-robin


def test_local_backend_replicates_everywhere():
    sim, cluster = make_cluster()
    be = make_backend("local", cluster)
    be.install("f", b"payload")
    for node_id in range(3):
        assert drive(sim, be.read(node_id, "f", 0, 7)) == b"payload"
    assert be.locations("f") is None


def test_local_read_never_touches_network():
    sim, cluster = make_cluster()
    be = make_backend("local", cluster)
    be.install("f", b"q" * 100_000)
    drive(sim, be.read(2, "f", 0, 100_000))
    assert cluster.network.bytes_moved == 0


def test_write_chunk_with_replication_uses_network():
    sim, cluster = make_cluster()
    be = make_backend("dfs", cluster)
    drive(sim, be.write_chunk(0, 100_000, replication=3))
    assert cluster.network.bytes_moved == 200_000  # two remote replicas


def test_local_write_chunk_stays_local():
    sim, cluster = make_cluster()
    be = make_backend("local", cluster)
    drive(sim, be.write_chunk(1, 100_000, replication=3))
    assert cluster.network.bytes_moved == 0


def test_purge_caches_makes_rereads_cost_again():
    sim, cluster = make_cluster()
    be = make_backend("dfs", cluster, block_size=100_000)
    be.install("f", b"c" * 100_000)
    drive(sim, be.read(0, "f", 0, 100_000))
    t1 = sim.now
    drive(sim, be.read(0, "f", 0, 100_000))  # cached: cheap
    cached_cost = sim.now - t1
    be.purge_caches()
    t2 = sim.now
    drive(sim, be.read(0, "f", 0, 100_000))
    assert sim.now - t2 > cached_cost
