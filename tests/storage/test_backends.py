"""The storage seam as the engine uses it: where ``install`` places
replicas, and what ``bind`` does through the cache-aside wrapper."""

import pytest

from repro.core.faults import ClusterHealth
from repro.hw import Cluster
from repro.hw.presets import das4_cluster
from repro.net.transport import TrafficMeter
from repro.simt import Simulator
from repro.storage import CacheAsideBackend, make_backend


def drive(sim, gen):
    p = sim.process(gen)
    sim.run()
    return p.value


# (nodes, replication, placement_nodes, file size, block size) -> the
# (offset, length, replicas) of every block of "f", installed after a
# 150-byte "first" so block ids do not start at zero.  Recorded from
# DFSBackend.install at the commit before DFS became the backend; a
# replica that moves here moves every simulated number downstream.
PLACEMENT_PINS = [
    ((4, 3, None, 3500, 1000),
     [(0, 1000, (0, 1, 2)), (1000, 1000, (1, 3, 0)),
      (2000, 1000, (2, 1, 3)), (3000, 500, (3, 0, 1))]),
    ((4, 2, None, 1000, 100),
     [(0, 100, (0, 1)), (100, 100, (1, 3)), (200, 100, (2, 1)),
      (300, 100, (3, 0)), (400, 100, (0, 1)), (500, 100, (1, 3)),
      (600, 100, (2, 1)), (700, 100, (3, 0)), (800, 100, (0, 1)),
      (900, 100, (1, 3))]),
    ((2, 3, None, 100, 1000), [(0, 100, (0, 1))]),
    ((8, 3, [0, 1], 5000, 1024),
     [(0, 1024, (0, 1)), (1024, 1024, (1, 0)), (2048, 1024, (0, 1)),
      (3072, 1024, (1, 0)), (4096, 904, (0, 1))]),
    ((8, 2, [1, 4, 6], 700, 100),
     [(0, 100, (1, 4)), (100, 100, (4, 1)), (200, 100, (6, 1)),
      (300, 100, (1, 4)), (400, 100, (4, 1)), (500, 100, (6, 1)),
      (600, 100, (1, 4))]),
    ((5, 1, None, 1, 64), [(0, 1, (0,))]),
    ((3, 3, None, 0, 64), [(0, 0, (0, 1, 2))]),
    ((6, 3, [5, 2, 3, 2], 450, 100),
     [(0, 100, (2, 3, 5)), (100, 100, (3, 2, 5)), (200, 100, (5, 2, 3)),
      (300, 100, (2, 3, 5)), (400, 50, (3, 2, 5))]),
]


@pytest.mark.parametrize("shape,expected", PLACEMENT_PINS,
                         ids=[str(shape) for shape, _ in PLACEMENT_PINS])
def test_install_places_replicas_where_it_always_did(shape, expected):
    nodes, replication, pool, size, block = shape
    cluster = Cluster(Simulator(), das4_cluster(nodes=nodes))
    be = make_backend("dfs", cluster, block_size=block,
                      replication=replication, placement_nodes=pool)
    be.install("first", b"a" * 150)
    be.install("f", bytes(size))
    assert [(loc.offset, loc.length, loc.replicas)
            for loc in be.locations("f")] == expected


def test_placement_pool_must_lie_inside_the_cluster():
    cluster = Cluster(Simulator(), das4_cluster(nodes=3))
    for pool in ([], [3], [-1, 0]):
        with pytest.raises(ValueError):
            make_backend("dfs", cluster, placement_nodes=pool)


def test_bind_reaches_the_dfs_through_the_cache_wrapper():
    """One block held by a crashed node (0) and a departed one (1):
    reads come off the departed node's disk, never the crashed one's,
    and output replicas go to neither."""
    sim = Simulator()
    cluster = Cluster(sim, das4_cluster(nodes=4))
    data = bytes(range(200)) * 50
    backend = CacheAsideBackend(make_backend(
        "dfs", cluster, block_size=len(data), replication=2))
    backend.install("f", data)
    backend.purge_caches()
    assert backend.locations("f")[0].replicas == (0, 1)

    health = ClusterHealth(4)
    health.mark_dead(0, 0.0)
    health.mark_departed(1, 0.0)
    meter = TrafficMeter(health=health)
    backend.bind(health, meter)

    assert drive(sim, backend.read(3, "f", 0, len(data))) == data
    assert cluster[0].disk.bytes_read == 0
    assert cluster[1].disk.bytes_read == len(data)
    assert meter.bytes_moved == len(data)        # 1 -> 3, on the job's meter

    drive(sim, backend.write_chunk(2, 4096, replication=3))
    assert [node.disk.bytes_written for node in cluster] == [0, 0, 4096, 4096]
    assert meter.bytes_moved == len(data) + 4096  # one remote copy, 2 -> 3
