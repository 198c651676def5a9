"""Cache-aside read caching over a :class:`~repro.storage.backend.StorageBackend`.

The DAG engine (:mod:`repro.dag`) runs many MapReduce rounds on one
long-lived cluster session, and iterative workloads (K-Means, PageRank)
re-read the *same immutable input* every round.  A fresh job pays the
full storage path per read — disk (or remote-replica network transfer)
plus, on DFS, the libhdfs JNI boundary.  This module implements the
cache-aside pattern over the storage layer: the first read of a declared
immutable range goes through the backend as usual and the returned bytes
are kept in an application-level RAM cache; subsequent reads of the same
range *by the same node* are served from that cache at zero simulated
cost (an in-process memory lookup crosses no disk, network or JNI
boundary).

Cost accounting stays byte-accurate:

* only **pinned** paths (declared immutable by the DAG) are ever cached —
  reads of mutable paths always reach the backend;
* the cache key includes the reading node, so a node never skips the
  remote-transfer cost of a range it has not itself paid for;
* hit/miss byte counters record exactly what was served from where, and
  :meth:`CacheAsideBackend.stats` exposes them for reports and benches.

Invalidation rules (see ``docs/dag.md``): re-installing a path with
different content drops its cached ranges, as does :meth:`invalidate`;
an LRU bound (``capacity_bytes``) evicts the coldest ranges first.
Elastic membership adds one more (see ``docs/elasticity.md``):
:meth:`CacheAsideBackend.mark_departed` evicts every range a departing
node held — pinned or not — because the entries model RAM on hardware
that just left the pool; keeping them would both leak accounting bytes
and hand a re-joining node a free (never re-paid-for) read.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.storage.backend import BlockLocation, StorageBackend

__all__ = ["CacheAsideBackend"]

#: cache key: (reading node, path, offset, length)
_Key = Tuple[int, str, int, int]


class CacheAsideBackend(StorageBackend):
    """Cache-aside wrapper: immutable split reads are served from RAM.

    ``base`` is the real backend (DFS or node-local); ``capacity_bytes``
    bounds the cache (LRU eviction), ``None`` leaves it unbounded —
    adequate for the laptop-scale inputs this repository simulates, and
    the knob is there when a workload needs a budget.
    """

    def __init__(self, base: StorageBackend,
                 capacity_bytes: Optional[int] = None,
                 sim: Optional[Any] = None,
                 timeline: Optional[Any] = None):
        if capacity_bytes is not None and capacity_bytes < 1:
            raise ValueError("capacity_bytes must be positive (or None)")
        self.base = base
        self.capacity_bytes = capacity_bytes
        # Optional simulation context for causal profiling: with both
        # set, a miss on a *pinned* path records a ``cache.read`` span
        # and a ``cache-miss`` wait edge covering the backend time the
        # hit path would have skipped.
        self.sim = sim
        self.timeline = timeline
        self._read_seq = 0
        self._pinned: Set[str] = set()
        self._entries: "OrderedDict[_Key, bytes]" = OrderedDict()
        self._cached_bytes = 0
        self.hits = 0
        self.misses = 0
        self.hit_bytes = 0
        self.miss_bytes = 0
        self.evictions = 0
        self._departed: Set[int] = set()
        self.departure_evictions = 0
        self.departure_eviction_bytes = 0

    # -- immutability declarations -----------------------------------------
    def pin(self, path: str) -> None:
        """Declare ``path`` immutable: its reads may be cached."""
        self._pinned.add(path)

    def pinned(self, path: str) -> bool:
        return path in self._pinned

    def invalidate(self, path: str) -> None:
        """Drop every cached range of ``path`` (content changed)."""
        stale = [key for key in self._entries if key[1] == path]
        for key in stale:
            self._cached_bytes -= len(self._entries.pop(key))

    # -- elastic membership --------------------------------------------------
    def mark_departed(self, node_id: int) -> None:
        """``node_id`` left the pool: evict every range it held, pinned
        entries included — its RAM is gone — and refuse to cache for it
        until it re-joins (:meth:`mark_rejoined`)."""
        self._departed.add(node_id)
        self._evict_departed(node_id)

    def mark_rejoined(self, node_id: int) -> None:
        """A previously departed node is back; it re-pays for its reads
        (nothing was retained) but may cache again."""
        self._departed.discard(node_id)

    def _evict_departed(self, node_id: int) -> None:
        stale = [key for key in self._entries if key[0] == node_id]
        for key in stale:
            data = self._entries.pop(key)
            self._cached_bytes -= len(data)
            self.departure_evictions += 1
            self.departure_eviction_bytes += len(data)

    # -- the cached read path ----------------------------------------------
    def read(self, node_id: int, path: str, offset: int,
             length: int) -> Generator:
        """Serve a pinned, previously read range from RAM; else delegate.

        A hit returns the bytes with **zero simulated time**: the data is
        already in the reading node's memory, so no disk, network or JNI
        cost applies.  A miss pays the full backend path and (for pinned
        paths) populates the cache.
        """
        key = (node_id, path, offset, length)
        pinned = path in self._pinned
        if pinned:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self.hit_bytes += len(cached)
                return cached
        t_miss = self.sim.now if self.sim is not None else None
        data = yield from self.base.read(node_id, path, offset, length)
        self.misses += 1
        self.miss_bytes += len(data)
        if (pinned and t_miss is not None and self.timeline is not None
                and self.sim.now > t_miss):
            # Zero-length span at completion + a cache-miss edge over the
            # backend read: the whole elapsed time is attributable wait
            # (a hit would have been free).
            self._read_seq += 1
            name = f"node{node_id}"
            self.timeline.record("cache.read", name, self.sim.now,
                                 self.sim.now, t_req=t_miss, path=path,
                                 bytes=len(data), op=self._read_seq)
            self.timeline.record_wait("cache-miss", path, "cache.read",
                                      name, t_miss, self.sim.now,
                                      op=self._read_seq)
        if pinned and node_id not in self._departed:
            self._insert(key, data)
        return data

    def _insert(self, key: _Key, data: bytes) -> None:
        if self.capacity_bytes is not None and len(data) > self.capacity_bytes:
            return    # a range larger than the whole budget never caches
        self._entries[key] = data
        self._cached_bytes += len(data)
        if self.capacity_bytes is None:
            return
        while self._cached_bytes > self.capacity_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._cached_bytes -= len(evicted)
            self.evictions += 1

    # -- accounting ---------------------------------------------------------
    @property
    def cached_bytes(self) -> int:
        """Bytes currently resident in the cache."""
        return self._cached_bytes

    def stats(self) -> Dict[str, Any]:
        """JSON-friendly counters for reports and benches."""
        total = self.hit_bytes + self.miss_bytes
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_bytes": self.hit_bytes,
            "miss_bytes": self.miss_bytes,
            "hit_rate_bytes": (self.hit_bytes / total) if total else 0.0,
            "cached_bytes": self._cached_bytes,
            "evictions": self.evictions,
            "departure_evictions": self.departure_evictions,
            "departure_eviction_bytes": self.departure_eviction_bytes,
            "departed_nodes": sorted(self._departed),
            "pinned_paths": sorted(self._pinned),
        }

    def audit(self) -> Dict[str, Any]:
        """Exact byte accounting + membership hygiene (chaos-suite hook):
        the accounted total must equal the sum of resident entries and no
        entry may belong to a departed node."""
        actual = sum(len(data) for data in self._entries.values())
        stale = sorted(key for key in self._entries
                       if key[0] in self._departed)
        return {
            "accounted_bytes": self._cached_bytes,
            "actual_bytes": actual,
            "consistent": actual == self._cached_bytes and not stale,
            "departed_keys": stale,
        }

    # -- delegation ---------------------------------------------------------
    def bind(self, health: Any, meter: Any) -> None:
        self.base.bind(health, meter)

    def write_chunk(self, node_id: int, nbytes: int,
                    replication: int) -> Generator:
        """Output writes are never cached; delegate at full cost."""
        yield from self.base.write_chunk(node_id, nbytes, replication)

    def size(self, path: str) -> int:
        return self.base.size(path)

    def locations(self, path: str) -> Optional[List[BlockLocation]]:
        return self.base.locations(path)

    def exists(self, path: str) -> bool:
        return self.base.exists(path)

    def install(self, path: str, data: bytes) -> None:
        """Install through the base backend, dropping stale cached ranges."""
        self.base.install(path, data)
        self.invalidate(path)

    def remove(self, path: str) -> None:
        self.base.remove(path)
        self.invalidate(path)

    def purge_caches(self) -> None:
        """Purge the *page* caches, plus any entry held for a departed
        node: pinned entries survive the purge only while their holder is
        in the pool.  (Previously stale ``(node, path, offset, len)``
        keys for departed hardware survived membership changes — both a
        byte-accounting leak and a free read for a re-joining node.)"""
        self.base.purge_caches()
        for node_id in sorted(self._departed):
            self._evict_departed(node_id)
