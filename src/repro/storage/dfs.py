"""Block-based distributed file system (HDFS-like) with a JNI cost model.

Files are split into blocks, replicated across nodes (default factor 3, as
the paper uses), and served with locality: readers prefer a local replica.
Block locations are queryable so the job coordinator can schedule for file
affinity, like Glasswing's scheduler and Hadoop's data-locality placement.

Accessing the DFS through ``libhdfs`` costs extra host CPU per call and
per byte (Java/native switches and JNI copies) — the overhead the paper
identifies as the reason MatMul turns I/O-bound on HDFS (Fig 3d).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.hw.node import Cluster
from repro.hw.specs import MiB
from repro.storage.backend import BlockLocation, StorageBackend
from repro.storage.localfs import FileNotFound, LocalFS

__all__ = ["DFS", "JNIOverhead"]


@dataclass(frozen=True)
class JNIOverhead:
    """libhdfs access cost: fixed host-CPU time per call + copy bandwidth."""

    per_call: float = 60e-6     # Java/native switch + bookkeeping, seconds
    copy_bw: float = 600e6      # JNI byte-array copy throughput, bytes/s

    def seconds_for(self, nbytes: int) -> float:
        return self.per_call + nbytes / self.copy_bw


@dataclass
class _Block:
    block_id: int
    length: int
    replicas: Tuple[int, ...]

    @property
    def local_path(self) -> str:
        return f".dfs/blk_{self.block_id}"


class DFS(StorageBackend):
    """The distributed file system deployed over a cluster.

    Parameters
    ----------
    cluster:
        Runtime cluster; one :class:`LocalFS` per node backs the blocks.
    block_size:
        Block granularity (the paper uses HDFS defaults; tests scale it
        down alongside the data).
    replication:
        Replica count of installed files (clamped to the placement pool).
    jni:
        Access overhead model; pass ``None`` for native access (used when
        modelling Glasswing's direct local-FS mode for comparison).
    placement_nodes:
        When set, installed blocks are placed only on these nodes (an
        elastic job's initially-active subset) — standby hardware joining
        later must never be a replica holder the baseline run depended
        on.  ``None`` places over the whole cluster, the classic behavior.
    """

    def __init__(self, cluster: Cluster, block_size: int = 8 * MiB,
                 replication: int = 3, jni: Optional[JNIOverhead] = JNIOverhead(),
                 placement_nodes: Optional[List[int]] = None):
        if block_size < 1:
            raise ValueError("block_size must be positive")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.cluster = cluster
        self.block_size = block_size
        self.replication = replication
        self.jni = jni
        if placement_nodes is None:
            pool = list(range(len(cluster)))
        else:
            pool = sorted(set(placement_nodes))
            if not pool or any(not (0 <= n < len(cluster)) for n in pool):
                raise ValueError(
                    f"placement nodes {pool} outside the cluster")
        self._pool = pool
        self.node_fs: List[LocalFS] = [LocalFS(node) for node in cluster]
        self._meta: Dict[str, List[_Block]] = {}
        self._block_ids = itertools.count()
        #: the owning job's ClusterHealth and TrafficMeter, see :meth:`bind`
        self.health = None
        self.meter = None

    def bind(self, health: Any, meter: Any) -> None:
        """Reads are served only from replicas ``health`` says can still
        serve (a crashed node's disk is gone), output replicas go only to
        live nodes, and block traffic is attributed to ``meter`` — the one
        tenant of a shared cluster this DFS belongs to."""
        self.health = health
        self.meter = meter

    # -- namespace -----------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._meta

    def size(self, path: str) -> int:
        self._require(path)
        return sum(b.length for b in self._meta[path])

    def remove(self, path: str) -> None:
        self._require(path)
        for block in self._meta.pop(path):
            for replica in block.replicas:
                if self.node_fs[replica].exists(block.local_path):
                    self.node_fs[replica].delete(block.local_path)

    def locations(self, path: str) -> List[BlockLocation]:
        """Block extents + replica holders, for affinity scheduling."""
        self._require(path)
        locations = []
        offset = 0
        for block in self._meta[path]:
            locations.append(BlockLocation(offset, block.length, block.replicas))
            offset += block.length
        return locations

    def purge_caches(self) -> None:
        """Purge the page cache on every node (paper's pre-test ritual)."""
        for fs in self.node_fs:
            fs.purge_cache()

    # -- write path ----------------------------------------------------------
    def install(self, path: str, data: bytes) -> None:
        """Zero-time block placement: cut ``data`` into blocks and put
        every replica on its holder's volume."""
        if self.exists(path):
            raise FileExistsError(path)
        rep = min(self.replication, len(self._pool))
        blocks: List[_Block] = []
        for start in range(0, max(len(data), 1), self.block_size):
            chunk = data[start:start + self.block_size]
            block = _Block(next(self._block_ids), len(chunk),
                           self._place_replicas(len(blocks), rep))
            for replica in block.replicas:
                self.node_fs[replica].install(block.local_path, chunk)
            blocks.append(block)
        self._meta[path] = blocks

    def _place_replicas(self, block_index: int, rep: int) -> Tuple[int, ...]:
        """First replicas rotate over the placement pool (the initially
        active subset for elastic jobs, the whole cluster otherwise, so an
        elastic baseline never depends on standby hardware); the rest
        spread round-robin from a start that shifts with the block."""
        pool = self._pool
        pos = block_index % len(pool)
        replicas = [pool[pos]]
        candidate = (pos + 1 + block_index) % len(pool)
        while len(replicas) < rep:
            if pool[candidate] not in replicas:
                replicas.append(pool[candidate])
            candidate = (candidate + 1) % len(pool)
        return tuple(replicas)

    def write_chunk(self, node_id: int, nbytes: int,
                    replication: int) -> Generator:
        """Replicated output append: local disk + pipelined remote copies.

        Replica targets skip dead nodes (a crashed node's disk cannot
        accept output), clamping to the surviving node count.
        """
        cluster = self.cluster
        health = self.health
        targets = [n for n in range(len(cluster))
                   if health is None or health.alive(n)]
        # Rotate so the writer (always alive) gets the first copy.
        pivot = targets.index(node_id) if node_id in targets else 0
        targets = targets[pivot:] + targets[:pivot]
        rep = min(replication, len(targets))
        yield from self._jni_charge(node_id, nbytes)
        procs = [cluster.sim.process(
            self._replica_write(node_id, targets[r], nbytes))
            for r in range(rep)]
        yield cluster.sim.all_of(procs)

    def _replica_write(self, writer: int, replica: int,
                       nbytes: int) -> Generator:
        if replica != writer:
            yield from self.cluster.network.send(writer, replica, nbytes,
                                                 meter=self.meter)
        yield from self.cluster[replica].disk.write(nbytes, stream="out")

    # -- read path -----------------------------------------------------------
    def read(self, node_id: int, path: str, offset: int,
             length: int) -> Generator:
        """Read a byte range from ``node_id``; returns the bytes.

        Each covered block is served from a local replica when available,
        otherwise streamed from a remote one, and crosses the JNI boundary.
        """
        self._require(path)
        if not (0 <= node_id < len(self.cluster)):
            raise ValueError(f"unknown node {node_id}")
        end = min(offset + length, self.size(path))
        pieces = []
        block_start = 0
        for block in self._meta[path]:
            block_end = block_start + block.length
            if block_end > offset and block_start < end:
                lo = max(offset, block_start) - block_start
                hi = min(end, block_end) - block_start
                piece = yield from self._read_block(block, lo, hi - lo,
                                                    node_id, stream=path)
                pieces.append(piece)
            block_start = block_end
            if block_start >= end:
                break
        return b"".join(pieces)     # one copy (none for a lone block)

    def _read_block(self, block: _Block, offset: int, length: int,
                    reader: int, stream: str = "") -> Generator:
        # A *departed* (drained) node's disk stays readable until the job
        # ends; a crashed node's is gone.
        health = self.health
        live = [r for r in block.replicas
                if health is None or health.storage_alive(r)]
        if not live:
            raise FileNotFound(
                f"{block.local_path}: every replica holder "
                f"{block.replicas} is dead")
        if reader in live:
            source = reader
        else:
            # Spread remote load over the replica holders instead of
            # hammering the first one.
            source = live[(reader + block.block_id) % len(live)]
        # Consecutive blocks of one file stream off the replica's disk.
        data = yield from self.node_fs[source].read(
            block.local_path, offset, length,
            stream=f"{stream}@r{reader}" if stream else "")
        if source != reader:
            yield from self.cluster.network.send(source, reader, length,
                                                 meter=self.meter)
        yield from self._jni_charge(reader, length)
        return data

    # -- internals --------------------------------------------------------------
    def _jni_charge(self, node_id: int, nbytes: int) -> Generator:
        """Host-CPU cost of crossing the libhdfs JNI boundary."""
        if self.jni is None:
            return
        yield self.cluster[node_id].host_work(1, self.jni.seconds_for(nbytes))

    def _require(self, path: str) -> None:
        if path not in self._meta:
            raise FileNotFound(path)
