"""Per-node local file system with an OS page-cache model.

Files hold real bytes.  Reads and writes charge the node's disk; ranges
already resident in the page cache are served at memory speed.  The cache
is LRU over whole files (adequate for the streaming access patterns of
MapReduce) and can be purged — the paper purges the filesystem cache
before every test "to guarantee test consistency".
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generator, List

from repro.hw.node import Node

__all__ = ["LocalFS", "FileNotFound"]


class FileNotFound(KeyError):
    """Raised for operations on paths that do not exist."""

    def __init__(self, path: str):
        super().__init__(path)
        self.path = path


class LocalFS:
    """A node's local volume.

    ``cache_fraction`` of the node's RAM serves as page cache.  Writes are
    write-through (the paper needs map output *durably* on disk) but leave
    the written file cached.
    """

    def __init__(self, node: Node, cache_fraction: float = 0.5):
        if not (0 <= cache_fraction <= 1):
            raise ValueError("cache_fraction must be within [0, 1]")
        self.node = node
        self._files: Dict[str, bytes] = {}
        self._cache: "OrderedDict[str, int]" = OrderedDict()  # path -> bytes
        self.cache_capacity = int(node.spec.ram * cache_fraction)
        self.cache_hits = 0
        self.cache_misses = 0

    # -- namespace ---------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._files

    def size(self, path: str) -> int:
        self._require(path)
        return len(self._files[path])

    def listdir(self, prefix: str = "") -> List[str]:
        """All paths starting with ``prefix``, sorted."""
        return sorted(p for p in self._files if p.startswith(prefix))

    def delete(self, path: str) -> None:
        self._require(path)
        del self._files[path]
        self._cache.pop(path, None)

    def install(self, path: str, blob: bytes) -> None:
        """Place ``blob`` with zero simulated time, stored as is (input
        placement is outside the paper's timings)."""
        self._files[path] = blob

    # -- data path (process-style generators) --------------------------------
    def write(self, path: str, data: bytes, append: bool = False,
              stream: str = "") -> Generator:
        """Write (or append) ``data``; charges disk write time.

        ``stream`` overrides the disk-stream identity (consecutive writes
        of the same stream skip the positioning cost); defaults to the
        path itself.
        """
        if append and path in self._files:
            self._files[path] = self._files[path] + data
        else:
            self._files[path] = bytes(data)
        yield from self.node.disk.write(len(data), stream=stream or path)
        self._cache_insert(path, len(self._files[path]))

    def read(self, path: str, offset: int = 0, length: int = -1,
             stream: str = "") -> Generator:
        """Read a range; returns the bytes. Cached files skip the disk.

        ``stream`` as in :meth:`write` — a DFS reading consecutive blocks
        of one file passes the file-level identity so the blocks stream.
        """
        self._require(path)
        data = self._files[path]
        if length < 0:
            length = len(data) - offset
        chunk = data[offset:offset + length]
        if self._cache_lookup(path):
            self.cache_hits += 1
        else:
            self.cache_misses += 1
            yield from self.node.disk.read(len(chunk), stream=stream or path)
            # Whole-file cache granularity: only a read that reached the
            # end of the file leaves it resident (a small peek must not
            # make the rest of the file free).
            if offset + length >= len(data):
                self._cache_insert(path, len(data))
        return chunk

    def purge_cache(self) -> None:
        """Drop the page cache (as done before each paper experiment)."""
        self._cache.clear()

    # -- cache internals -------------------------------------------------------
    def _cache_lookup(self, path: str) -> bool:
        if path in self._cache:
            self._cache.move_to_end(path)
            return True
        return False

    def _cache_insert(self, path: str, nbytes: int) -> None:
        if nbytes > self.cache_capacity:
            return
        self._cache[path] = nbytes
        self._cache.move_to_end(path)
        while sum(self._cache.values()) > self.cache_capacity:
            self._cache.popitem(last=False)

    def _require(self, path: str) -> None:
        if path not in self._files:
            raise FileNotFound(path)
