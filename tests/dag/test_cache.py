"""Byte-accurate accounting of the cache-aside storage wrapper."""

import pytest

from repro.storage.backend import StorageBackend
from repro.storage.cache import CacheAsideBackend


class FakeBase(StorageBackend):
    """In-memory backend that records every read it actually serves."""

    def __init__(self):
        self.files = {}
        self.reads = []
        self.purges = 0

    def read(self, node_id, path, offset, length):
        self.reads.append((node_id, path, offset, length))
        return self.files[path][offset:offset + length]
        yield  # pragma: no cover - generator protocol only

    def write_chunk(self, node_id, nbytes, replication):
        return None
        yield  # pragma: no cover - generator protocol only

    def size(self, path):
        return len(self.files[path])

    def locations(self, path):
        return None

    def exists(self, path):
        return path in self.files

    def install(self, path, data):
        self.files[path] = data

    def remove(self, path):
        del self.files[path]

    def purge_caches(self):
        self.purges += 1


def drive(gen):
    """Run a storage generator to completion, returning its value."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


@pytest.fixture
def backend():
    base = FakeBase()
    base.install("pinned", bytes(range(256)) * 4)
    base.install("mutable", b"m" * 512)
    cache = CacheAsideBackend(base)
    cache.pin("pinned")
    return base, cache


def test_miss_then_hit(backend):
    base, cache = backend
    first = drive(cache.read(0, "pinned", 0, 128))
    second = drive(cache.read(0, "pinned", 0, 128))
    assert first == second == base.files["pinned"][:128]
    assert base.reads == [(0, "pinned", 0, 128)]  # hit skipped the base
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.hit_bytes == cache.miss_bytes == 128


def test_unpinned_paths_never_cache(backend):
    base, cache = backend
    drive(cache.read(0, "mutable", 0, 64))
    drive(cache.read(0, "mutable", 0, 64))
    assert len(base.reads) == 2
    assert cache.hits == 0 and cache.cached_bytes == 0


def test_cache_key_includes_reading_node(backend):
    base, cache = backend
    drive(cache.read(0, "pinned", 0, 64))
    drive(cache.read(1, "pinned", 0, 64))
    # Node 1 has not paid the transfer cost; both reads reach the base.
    assert len(base.reads) == 2 and cache.hits == 0
    drive(cache.read(1, "pinned", 0, 64))
    assert cache.hits == 1


def test_install_invalidates_cached_ranges(backend):
    base, cache = backend
    drive(cache.read(0, "pinned", 0, 64))
    cache.install("pinned", b"new content" * 100)
    data = drive(cache.read(0, "pinned", 0, 64))
    assert data == (b"new content" * 100)[:64]
    assert cache.misses == 2  # stale range was dropped


def test_remove_invalidates(backend):
    base, cache = backend
    drive(cache.read(0, "pinned", 0, 64))
    cache.remove("pinned")
    assert not cache.exists("pinned")
    assert cache.cached_bytes == 0


def test_explicit_invalidate(backend):
    base, cache = backend
    drive(cache.read(0, "pinned", 0, 64))
    drive(cache.read(0, "pinned", 64, 64))
    assert cache.cached_bytes == 128
    cache.invalidate("pinned")
    assert cache.cached_bytes == 0


def test_lru_eviction_respects_capacity():
    base = FakeBase()
    base.install("p", bytes(300))
    cache = CacheAsideBackend(base, capacity_bytes=100)
    cache.pin("p")
    drive(cache.read(0, "p", 0, 60))
    drive(cache.read(0, "p", 60, 60))    # evicts the first range
    assert cache.cached_bytes == 60
    assert cache.evictions == 1
    drive(cache.read(0, "p", 0, 60))     # the evicted range misses again
    assert cache.misses == 3


def test_oversized_range_never_caches():
    base = FakeBase()
    base.install("p", bytes(300))
    cache = CacheAsideBackend(base, capacity_bytes=100)
    cache.pin("p")
    drive(cache.read(0, "p", 0, 200))
    assert cache.cached_bytes == 0 and cache.evictions == 0


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        CacheAsideBackend(FakeBase(), capacity_bytes=0)


def test_purge_caches_keeps_cache_aside_entries(backend):
    base, cache = backend
    drive(cache.read(0, "pinned", 0, 64))
    cache.purge_caches()
    assert base.purges == 1
    assert cache.cached_bytes == 64  # application buffer, not page cache


def test_stats_shape(backend):
    base, cache = backend
    drive(cache.read(0, "pinned", 0, 64))
    drive(cache.read(0, "pinned", 0, 64))
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["hit_rate_bytes"] == pytest.approx(0.5)
    assert stats["pinned_paths"] == ["pinned"]
    assert stats["cached_bytes"] == 64
