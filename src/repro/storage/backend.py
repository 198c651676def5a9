"""The storage seam: the one interface every engine reads and writes through.

The paper evaluates Glasswing both against HDFS (instrumented to use
libhdfs so it has "no file access time advantage over Hadoop") and against
node-local storage where files are fully replicated per node (the GPMR
comparison layout).  :class:`StorageBackend` is that door; three classes
implement it — :class:`~repro.storage.DFS`, :class:`LocalBackend` and the
:class:`~repro.storage.CacheAsideBackend` wrapper — and callers open one
by name with :func:`make_backend`, never the module behind it.

``install`` places input data with **zero simulated time** — the paper's
timings exclude input generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Tuple

from repro.hw.node import Cluster
from repro.storage.localfs import LocalFS

__all__ = ["BlockLocation", "StorageBackend", "LocalBackend", "make_backend"]


@dataclass(frozen=True)
class BlockLocation:
    """One block's extent within its file and the nodes holding replicas."""

    offset: int
    length: int
    replicas: Tuple[int, ...]


class StorageBackend:
    """Interface the phases program against."""

    def read(self, node_id: int, path: str, offset: int,
             length: int) -> Generator:
        """Read a range from ``node_id``; returns bytes."""
        raise NotImplementedError

    def write_chunk(self, node_id: int, nbytes: int,
                    replication: int) -> Generator:
        """Charge the cost of appending ``nbytes`` of job output."""
        raise NotImplementedError

    def size(self, path: str) -> int:
        raise NotImplementedError

    def locations(self, path: str) -> Optional[List[BlockLocation]]:
        """Block locations for affinity scheduling; None when meaningless
        (node-local storage has every byte everywhere)."""
        raise NotImplementedError

    def exists(self, path: str) -> bool:
        """True when ``path`` is already installed (long-lived backends
        shared across jobs skip re-installation of unchanged inputs)."""
        raise NotImplementedError

    def install(self, path: str, data: bytes) -> None:
        """Place input data with zero simulated time."""
        raise NotImplementedError

    def remove(self, path: str) -> None:
        """Delete ``path`` with zero simulated time (the DAG runner
        replaces a mutated input by remove + install)."""
        raise NotImplementedError

    def purge_caches(self) -> None:
        raise NotImplementedError

    # -- what a job tells its storage (no-ops unless a backend cares) ------
    def bind(self, health: Any, meter: Any) -> None:
        """Serve the job that owns ``health`` (a ``ClusterHealth``: which
        replica holders can still read or accept writes) and ``meter``
        (a ``TrafficMeter``: whose bytes the replica traffic is)."""

    def mark_departed(self, node_id: int) -> None:
        """``node_id`` was drained out of the pool."""

    def mark_rejoined(self, node_id: int) -> None:
        """``node_id`` is (back) in the pool."""


class LocalBackend(StorageBackend):
    """Node-local storage with inputs fully replicated on every node."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.node_fs: List[LocalFS] = [LocalFS(node) for node in cluster]

    def read(self, node_id: int, path: str, offset: int,
             length: int) -> Generator:
        """Local read — every node holds a full replica of each input."""
        data = yield from self.node_fs[node_id].read(path, offset, length)
        return data

    def write_chunk(self, node_id: int, nbytes: int,
                    replication: int) -> Generator:
        # Local output: one copy on the local disk (the GPMR layout).
        yield from self.cluster[node_id].disk.write(nbytes, stream="out")

    def size(self, path: str) -> int:
        """Total file length in bytes."""
        return self.node_fs[0].size(path)

    def locations(self, path: str) -> Optional[List[BlockLocation]]:
        """No locality information: every byte is everywhere."""
        return None

    def exists(self, path: str) -> bool:
        return self.node_fs[0].exists(path)

    def remove(self, path: str) -> None:
        for fs in self.node_fs:
            if fs.exists(path):
                fs.delete(path)

    def install(self, path: str, data: bytes) -> None:
        blob = data if isinstance(data, bytes) else bytes(data)
        for fs in self.node_fs:
            # One immutable blob shared by every replica (no n-fold copy).
            fs.install(path, blob)

    def purge_caches(self) -> None:
        """Drop every node's page cache (pre-test ritual)."""
        for fs in self.node_fs:
            fs.purge_cache()


def make_backend(kind: str, cluster: Cluster, **dfs_kwargs) -> StorageBackend:
    """Factory: ``"dfs"`` or ``"local"`` (which ignores ``dfs_kwargs``)."""
    if kind == "dfs":
        # dfs.py imports this module for the interface it implements.
        from repro.storage.dfs import DFS
        return DFS(cluster, **dfs_kwargs)
    if kind == "local":
        return LocalBackend(cluster)
    raise ValueError(f"unknown storage backend {kind!r}")
