"""Tests for the node-local file system and its page cache."""

import pytest

from repro.hw import Node
from repro.hw.presets import type1_node
from repro.simt import Simulator
from repro.storage.localfs import FileNotFound, LocalFS


def make_fs(cache_fraction=0.5):
    sim = Simulator()
    node = Node(sim, type1_node(), 0)
    return sim, node, LocalFS(node, cache_fraction=cache_fraction)


def run(sim, gen):
    """Drive a storage generator to completion, return its value."""
    p = sim.process(gen)
    sim.run()
    return p.value


def test_write_then_read_round_trip():
    sim, node, fs = make_fs()
    run(sim, fs.write("f", b"hello world"))
    data = run(sim, fs.read("f"))
    assert data == b"hello world"
    assert fs.size("f") == 11


def test_read_range():
    sim, node, fs = make_fs()
    run(sim, fs.write("f", b"0123456789"))
    assert run(sim, fs.read("f", offset=2, length=3)) == b"234"
    assert run(sim, fs.read("f", offset=8)) == b"89"


def test_append():
    sim, node, fs = make_fs()
    run(sim, fs.write("f", b"aaa"))
    run(sim, fs.write("f", b"bbb", append=True))
    assert run(sim, fs.read("f")) == b"aaabbb"


def test_missing_file_raises():
    sim, node, fs = make_fs()
    with pytest.raises(FileNotFound):
        fs.size("nope")
    def reader():
        yield from fs.read("nope")
    p = sim.process(reader())
    with pytest.raises(FileNotFound):
        sim.run()


def test_write_charges_disk_time():
    sim, node, fs = make_fs()
    nbytes = int(160e6)  # 1 second at type-1 write bandwidth
    run(sim, fs.write("big", b"x" * nbytes))
    assert sim.now == pytest.approx(node.spec.disk.seek_time + 1.0, rel=1e-3)


def test_cached_read_is_free_purge_restores_cost():
    sim, node, fs = make_fs()
    nbytes = int(18e6)
    run(sim, fs.write("f", b"y" * nbytes))
    t_after_write = sim.now
    run(sim, fs.read("f"))  # write-through left it cached
    assert sim.now == t_after_write
    assert fs.cache_hits == 1
    fs.purge_cache()
    run(sim, fs.read("f"))
    assert sim.now > t_after_write
    assert fs.cache_misses == 1


def test_cache_eviction_lru():
    sim, node, fs = make_fs(cache_fraction=0.0)
    # Zero cache: every read pays the disk.
    run(sim, fs.write("f", b"z" * 1000))
    t0 = sim.now
    run(sim, fs.read("f"))
    assert sim.now > t0
    assert fs.cache_misses == 1


def test_delete_and_listdir():
    sim, node, fs = make_fs()
    run(sim, fs.write("dir/a", b"1"))
    run(sim, fs.write("dir/b", b"2"))
    run(sim, fs.write("other", b"3"))
    assert fs.listdir("dir/") == ["dir/a", "dir/b"]
    fs.delete("dir/a")
    assert not fs.exists("dir/a")
    assert fs.listdir("") == ["dir/b", "other"]


def test_overwrite_replaces_content():
    sim, node, fs = make_fs()
    run(sim, fs.write("f", b"old content"))
    run(sim, fs.write("f", b"new"))
    assert run(sim, fs.read("f")) == b"new"
