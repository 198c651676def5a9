"""Per-node intermediate data management (§III-B of the paper).

Each node runs, in parallel with its map pipeline, a group of merger
threads that manage intermediate data:

1. an in-memory cache of partitions, merged and flushed to local disk when
   the aggregate size exceeds a configurable threshold;
2. partitions received from other cluster nodes join the cache;
3. on-disk runs are continuously merged (multi-way) so the file count per
   partition stays below a configurable limit.

The **merge delay** — the paper's §III-B metric — is the time spent
finishing this work after the map phase completes and before reduction can
start.  It emerges here from the backlog the merger threads could not
clear while competing with the map kernel and partitioner threads for CPU.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.hw.node import Node
from repro.simt.core import Event, Simulator
from repro.simt.resources import Store, StoreClosed
from repro.simt.trace import Timeline

from repro.core.api import MapReduceApp, merge_runs
from repro.core.config import JobConfig
from repro.core.costs import DEFAULT_HOST_COSTS, HostCosts
from repro.core.data import MapBlock, PairColumns

__all__ = ["IntermediateManager", "DiskRun"]


class DiskRun(PairColumns):
    """A merged, sorted run on the node-local disk (its bytes only are
    modeled): ``raw_bytes`` uncompressed, ``stored_bytes`` compressed."""

    __slots__ = ("path", "raw_bytes", "stored_bytes")

    def __init__(self, path: str, run: PairColumns, raw_bytes: int,
                 stored_bytes: int):
        # Columns of one merge, equal-length by construction: no check.
        self.keys, self.values = run.keys, run.values
        self.path, self.raw_bytes = path, raw_bytes
        self.stored_bytes = stored_bytes


class IntermediateManager:
    """Owns the partitions assigned to one node.

    Global partition ``pid`` is owned by node ``pid % n_nodes``; this
    manager stores runs for its owned pids, keyed locally: cached buckets
    as the :class:`MapBlock` they belong to, disk runs as :class:`DiskRun`.
    """

    def __init__(self, sim: Simulator, node: Node,
                 app: MapReduceApp, config: JobConfig, timeline: Timeline,
                 owned_pids: List[int],
                 costs: HostCosts = DEFAULT_HOST_COSTS,
                 procs: Optional[set] = None):
        self.sim = sim
        self.node = node
        self.app = app
        self.config = config
        self.timeline = timeline
        self.costs = costs
        self.owned = list(owned_pids)
        self._mem_runs: Dict[int, List[MapBlock]] = {p: [] for p in owned_pids}
        self._disk_runs: Dict[int, List[DiskRun]] = {p: [] for p in owned_pids}
        self._mem_bytes = 0
        self._flush_pending: set[int] = set()
        self._queue = Store(sim, name=f"{node.name}.mergeq")
        # Tasks enqueued but not yet finished; counted at enqueue time so
        # the drain check cannot race with a worker picking up a task.
        self._pending = 0
        self._idle_event: Optional[Event] = None
        self._run_seq = 0
        for i in range(config.effective_merger_threads):
            sim.process(self._worker(), f"{node.name}.merger{i}", procs)
        self.merge_delay: float = 0.0
        self.spilled_bytes = 0
        tele = timeline.telemetry
        if tele is not None:
            tele.gauge("glasswing_merge_cache_bytes",
                       help="partition-cache fill (flush threshold = "
                            "capacity)",
                       probe=lambda: self._mem_bytes,
                       capacity=config.cache_threshold, node=node.name)
            tele.gauge("glasswing_merge_backlog_tasks",
                       help="flush/compact tasks enqueued but unfinished",
                       probe=lambda: self._pending, node=node.name)
            tele.gauge("glasswing_merge_queue_depth",
                       help="merge tasks waiting for a merger thread",
                       probe=lambda: len(self._queue),
                       node=node.name)

    # -- ingestion ---------------------------------------------------------
    def add_block(self, block: MapBlock, pids: List[int]) -> None:
        """Cache the non-empty buckets ``pids`` of ``block``, of owned
        partitions, one after the other: a pointer append each (merging
        and flushing happen on the merger threads)."""
        for pid in pids:
            self._mem_runs[pid].append(block)    # KeyError: not owned here
            self._mem_bytes += block.raw[pid]
            self._maybe_trigger_flush()

    def adopt_partition(self, pid: int) -> None:
        """Take ownership of a partition re-assigned from a dead node.

        Starts empty: the runs the dead owner held are reproduced by the
        recovery layer (durable re-push or split re-execution) and arrive
        through :meth:`add_block` like any other shuffle data.
        """
        if pid in self._mem_runs:
            return
        self.owned.append(pid)
        self._mem_runs[pid] = []
        self._disk_runs[pid] = []

    def kill(self) -> None:
        """Node crash: stop the merger workers and drop all cached state.

        The workers are *not* interrupted — they drain naturally off the
        closed queue (an interrupt mid-flush would leave a half-charged
        disk write; with the node dead, nobody observes the difference).
        """
        self._queue.close()
        self._mem_runs = {p: [] for p in self.owned}
        self._disk_runs = {p: [] for p in self.owned}
        self._mem_bytes = 0
        self._pending = 0
        self._signal_if_idle()

    # -- lifecycle -------------------------------------------------------------
    def finalize(self) -> Generator:
        """Finish all outstanding merge work; records the merge delay.

        Must be called after the map phase completed globally (all pushes
        delivered).  Consolidates every owned partition to at most
        ``max_intermediate_files`` disk runs.
        """
        start = self.sim.now
        for pid in self.owned:
            if len(self._disk_runs[pid]) > self.config.max_intermediate_files:
                self._enqueue(self._do_compact, pid)
        yield from self._drain()
        self.merge_delay = self.sim.now - start
        self.timeline.record("merge.delay", self.node.name, start, self.sim.now)
        self._queue.close()

    def read_partition(self, pid: int) -> Tuple[List[PairColumns], int, int]:
        """Runs of an owned partition for the reduce input reader: its
        cached buckets in arrival order, then its disk runs.

        Returns ``(runs, disk_bytes, disk_raw_bytes)`` — the stored
        (compressed) bytes that must come off disk and their inflated
        size, so the reader can charge I/O and decompression.
        """
        disk = self._disk_runs.get(pid, [])
        return ([block.bucket(pid) for block in self._mem_runs.get(pid, [])]
                + disk,
                sum(dr.stored_bytes for dr in disk),
                sum(dr.raw_bytes for dr in disk))

    # -- flush triggering ----------------------------------------------------------
    def _maybe_trigger_flush(self) -> None:
        if self._mem_bytes <= self.config.cache_threshold:
            return
        # Flush the largest cached partitions until we are half-drained.
        target = self.config.cache_threshold // 2
        by_size = sorted(
            ((sum(block.raw[pid] for block in blocks), pid)
             for pid, blocks in self._mem_runs.items()
             if blocks and pid not in self._flush_pending),
            reverse=True)
        projected = self._mem_bytes
        for size, pid in by_size:
            if projected <= target:
                break
            self._flush_pending.add(pid)
            self._enqueue(self._do_flush, pid)
            projected -= size

    # -- merger workers ----------------------------------------------------------
    def _enqueue(self, task: Callable[[int], Generator], pid: int) -> None:
        self._pending += 1
        self._queue.put((task, pid))

    def _worker(self) -> Generator:
        while True:
            try:
                task, pid = yield self._queue.get()
            except StoreClosed:
                return
            try:
                yield from task(pid)    # _do_flush or _do_compact
            finally:
                # kill() zeroes the counter; a worker finishing its last
                # in-flight task afterwards must not drive it negative.
                self._pending = max(0, self._pending - 1)
                self._signal_if_idle()

    def _do_flush(self, pid: int) -> Generator:
        self._flush_pending.discard(pid)
        blocks = self._mem_runs[pid]
        if not blocks:
            return
        self._mem_runs[pid] = []
        raw = sum(block.raw[pid] for block in blocks)
        self._mem_bytes -= raw
        start = self.sim.now
        stored, items = yield from self._write_merged(
            pid, [block.bucket(pid) for block in blocks], raw, 0.0)
        self.spilled_bytes += stored
        self.timeline.record("merge.flush", self.node.name, start, self.sim.now,
                             pid=pid, items=items, bytes=stored, raw_bytes=raw)
        if len(self._disk_runs[pid]) > self.config.max_intermediate_files:
            self._enqueue(self._do_compact, pid)

    def _do_compact(self, pid: int) -> Generator:
        disk_runs = self._disk_runs[pid]
        if len(disk_runs) <= 1:
            return
        self._disk_runs[pid] = []
        start = self.sim.now
        raw = sum(r.raw_bytes for r in disk_runs)
        stored_in = sum(r.stored_bytes for r in disk_runs)
        # Read + decompress every input run, merge, compress, write back.
        for dr in disk_runs:
            yield from self.node.disk.read(dr.stored_bytes, stream=dr.path)
        stored, _ = yield from self._write_merged(
            pid, disk_runs, raw,
            self.config.compression.decompress_seconds(raw))
        self.timeline.record("merge.compact", self.node.name, start,
                             self.sim.now, pid=pid, stored_in=stored_in,
                             bytes=stored, raw_bytes=raw)

    # -- helpers ----------------------------------------------------------------
    def _write_merged(self, pid: int, runs: List[PairColumns], raw: int,
                      decompress_s: float) -> Generator:
        """Merge ``runs`` into a new disk run of ``pid`` (CPU on one merger
        thread, then the write); returns its stored bytes and pairs."""
        merged = merge_runs(self.app, runs)
        comp = self.config.compression
        yield self.node.host_work(1, decompress_s
                                  + self.costs.merge_seconds(len(merged))
                                  + comp.compress_seconds(raw))
        stored = comp.compressed_size(raw)
        self._run_seq += 1
        path = f".inter/p{pid}/run{self._run_seq}"
        yield from self.node.disk.write(stored, stream=path)
        self._disk_runs[pid].append(DiskRun(path, merged, raw, stored))
        return stored, len(merged)

    def _drain(self) -> Generator:
        """Wait until every enqueued task has finished."""
        while self._pending:
            self._idle_event = Event(self.sim)
            yield self._idle_event

    def _signal_if_idle(self) -> None:
        if (self._idle_event is not None and not self._idle_event.triggered
                and self._pending == 0):
            self._idle_event.succeed(None)

    # -- introspection ------------------------------------------------------------
    @property
    def cached_bytes(self) -> int:
        return self._mem_bytes
