"""Tests for the distributed file system."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw import Cluster
from repro.hw.presets import das4_cluster
from repro.simt import Simulator
from repro.storage.dfs import DFS, JNIOverhead
from repro.storage.localfs import FileNotFound


def make_dfs(nodes=4, block_size=1000, replication=3, jni=JNIOverhead()):
    sim = Simulator()
    cluster = Cluster(sim, das4_cluster(nodes=nodes))
    dfs = DFS(cluster, block_size=block_size, replication=replication, jni=jni)
    return sim, cluster, dfs


def run(sim, gen):
    p = sim.process(gen)
    sim.run()
    return p.value


def test_create_read_round_trip():
    sim, cluster, dfs = make_dfs()
    data = bytes(range(256)) * 20  # 5120 bytes -> 6 blocks of 1000
    dfs.install("f", data)
    assert sim.now == 0.0  # input placement is outside the timings
    assert dfs.size("f") == 5120
    got = run(sim, dfs.read(2, "f", 0, len(data)))
    assert got == data


def test_read_arbitrary_ranges_cross_blocks():
    sim, cluster, dfs = make_dfs(block_size=100)
    data = bytes(i % 251 for i in range(1050))
    dfs.install("f", data)
    for (off, ln) in [(0, 50), (95, 10), (0, 1050), (999, 51), (100, 900),
                      (1000, 500)]:          # the last runs past the end
        assert run(sim, dfs.read(0, "f", off, ln)) == data[off:off + ln]


def test_block_locations_cover_file():
    sim, cluster, dfs = make_dfs(block_size=1000)
    dfs.install("f", b"q" * 3500)
    locs = dfs.locations("f")
    assert [loc.length for loc in locs] == [1000, 1000, 1000, 500]
    assert [loc.offset for loc in locs] == [0, 1000, 2000, 3000]
    for loc in locs:
        assert len(loc.replicas) == 3
        assert len(set(loc.replicas)) == 3


def test_replication_clamped_to_cluster():
    sim, cluster, dfs = make_dfs(nodes=2, replication=3)
    dfs.install("f", b"x" * 100)
    assert len(dfs.locations("f")[0].replicas) == 2


def test_replication_one_stays_local():
    sim, cluster, dfs = make_dfs(replication=1)
    dfs.install("f", b"x" * 2500)
    dfs.purge_caches()
    for loc in dfs.locations("f"):
        (holder,) = loc.replicas
        run(sim, dfs.read(holder, "f", loc.offset, loc.length))
    assert cluster.network.bytes_moved == 0  # each holder read its own block


def test_replicas_spread_across_nodes():
    sim, cluster, dfs = make_dfs(nodes=4, block_size=100)
    dfs.install("f", b"x" * 400)
    second_replicas = {loc.replicas[1] for loc in dfs.locations("f")}
    assert len(second_replicas) > 1  # round-robin spreads the copies


def test_local_read_faster_than_remote():
    # One block, replication=1: it sits on node 0; compare reading it
    # from node 0 vs node 1.
    data = b"z" * 500_000
    times = {}
    for reader in (0, 1):
        sim, cluster, dfs = make_dfs(replication=1, jni=None,
                                     block_size=len(data))
        dfs.install("f", data)
        assert dfs.locations("f")[0].replicas == (0,)
        dfs.purge_caches()
        run(sim, dfs.read(reader, "f", 0, len(data)))
        times[reader] = sim.now
    assert times[1] > times[0]


def test_jni_overhead_costs_time():
    data = b"j" * 500_000
    times = {}
    for label, jni in [("native", None), ("jni", JNIOverhead(per_call=1e-3,
                                                             copy_bw=100e6))]:
        sim, cluster, dfs = make_dfs(jni=jni, block_size=100_000)
        dfs.install("f", data)
        dfs.purge_caches()
        run(sim, dfs.read(0, "f", 0, len(data)))
        times[label] = sim.now
    assert times["jni"] > times["native"]


def test_delete_removes_blocks():
    sim, cluster, dfs = make_dfs()
    dfs.install("f", b"x" * 2000)
    assert dfs.node_fs[0].listdir(".dfs/")
    dfs.remove("f")
    assert not dfs.exists("f")
    for fs in dfs.node_fs:
        assert not fs.listdir(".dfs/")


def test_create_existing_path_rejected():
    sim, cluster, dfs = make_dfs()
    dfs.install("f", b"1")
    with pytest.raises(FileExistsError):
        dfs.install("f", b"2")


def test_missing_file_raises():
    sim, cluster, dfs = make_dfs()
    with pytest.raises(FileNotFound):
        dfs.size("ghost")
    with pytest.raises(FileNotFound):
        dfs.locations("ghost")
    with pytest.raises(FileNotFound):
        dfs.remove("ghost")


@settings(max_examples=25, deadline=None)
@given(data=st.binary(min_size=0, max_size=5000),
       block_size=st.integers(min_value=1, max_value=700),
       off_frac=st.floats(min_value=0, max_value=1),
       len_frac=st.floats(min_value=0, max_value=1))
def test_dfs_read_matches_slice_property(data, block_size, off_frac, len_frac):
    """Any (offset, length) read equals the equivalent bytes slice."""
    sim = Simulator()
    cluster = Cluster(sim, das4_cluster(nodes=3))
    dfs = DFS(cluster, block_size=block_size, replication=2)
    dfs.install("f", data)
    off = int(off_frac * len(data))
    ln = int(len_frac * (len(data) - off))
    got = run(sim, dfs.read(1, "f", off, ln))
    assert got == data[off:off + ln]
