"""The reduce-phase pipeline instantiation (§III-C of the paper).

Stage bodies:

1. **Input** — perform the last multi-way merge over a partition's runs
   (memory-cached + on-disk) and emit chunks cut from the merged pairs at
   key boundaries.  The reduce reader "supplies the pipeline with a
   consistent view of the intermediate data".
2. **Stage** / 4. **Retrieve** — host<->device transfers, disabled for
   unified memory.
3. **Kernel** — reduce ``concurrent_keys`` keys in parallel, each kernel
   thread processing ``keys_per_thread`` keys sequentially (the Figure-5
   amortisation of launch overhead).  Keys whose value list exceeds the
   per-launch budget relaunch with scratch-buffer state (§III-C).
5. **Output** — write final pairs to persistent storage with the
   configured replication.

TeraSort-style ``map_only_output`` jobs use an identity kernel of zero
cost: their output is fully determined by the shuffle's total order.

Reduce-task crashes (§III-E) retry in place: the partition's intermediate
runs are durable in the node's cache/disk, so a restarted attempt charges
its partial kernel work, re-fetches its input (disk re-read, decompress,
merge, group), backs off and relaunches — same ``max_attempts`` ceiling
as map tasks.  The real reduction runs once either way, so output is
byte-identical to the fault-free run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from operator import floordiv
from typing import Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.hw.specs import DeviceKind
from repro.ocl.kernel import KernelCost

from repro.core.api import merge_runs
from repro.core.batching import apportion_bytes, resolve_batch_size
from repro.core.data import KeyGroupChunk, PairColumns, ReduceOutput
from repro.core.faults import end_crashed_attempt
from repro.core.pipeline import Pipeline, reserve_device_buffers

__all__ = ["ReducePhase"]


@dataclass
class _ReduceItem(KeyGroupChunk):
    """One reduce-input chunk of one partition, with what it charges."""

    pid: int = 0
    disk_bytes: int = 0  # compressed bytes this chunk pulls off disk
    disk_raw: int = 0    # their inflated size (decompression cost basis)
    merge_items: int = 0  # pairs moved through the final merge for it
    #: kernel launches this item carries.  The modeled launch geometry is
    #: ``concurrent_keys * keys_per_thread`` keys per launch; when
    #: ``batch_size`` simulates a launch as several smaller items, only
    #: the launch window's first item charges the overhead.
    launches: int = 1
    #: keys of the whole modeled launch window (thread-count basis)
    window_keys: int = 0
    #: id of the modeled launch window this item belongs to; output writes
    #: coalesce per window (one ``write_chunk`` per modeled launch), so the
    #: per-call costs — JNI charge, replica-message latency — stay those of
    #: the modeled system, not of the simulation granularity.
    window_id: int = 0
    #: True for the window's final sub-item (it pays the output write)
    last: bool = True
    merged: Optional[PairColumns] = None  # a map-only partition's pairs


class ReducePhase:
    """One node's reduce pipeline over its owned partitions."""

    def __init__(self, job, node_id: int, kind: DeviceKind,
                 pids: Optional[Sequence[int]] = None):
        # ``job`` is the JobExecution (see MapPhase for the aliasing).
        self.sim = sim = job.sim
        self.node = node = job.cluster[node_id]
        self.device = device = job.device_objs[node_id][kind]
        self.app = job.app
        self.config = config = job.config
        self.backend = job.backend
        self.timeline = timeline = job.timeline
        self.manager = job.managers[node_id]
        self.costs = job.costs
        self.faults = job.faults
        # ``pids`` restricts this pipeline to a subset of the manager's
        # owned partitions (device pools split a node's partitions across
        # several concurrent reduce pipelines); ``None`` keeps them all.
        self.pids = list(pids) if pids is not None else None
        self.output_pairs: dict[int, List[PairColumns]] = {}  # per chunk
        self.keys_reduced = 0
        self._pid_by_index: dict[int, int] = {}
        self._items_by_index: dict[int, _ReduceItem] = {}
        self._first_index_of_pid: dict[int, int] = {}
        self._window_bytes: dict[int, int] = {}
        items = self._plan_items()
        stage_fn = None if device.spec.unified_memory else self._stage
        retrieve_fn = None if device.spec.unified_memory else self._retrieve
        #: the device memory behind the pipeline's slots (see MapPhase)
        self.device_ctx = reserve_device_buffers(
            device, config.buffering, config.chunk_size,
            f"{node.name}.reduce")
        self.pipeline = Pipeline(
            sim, timeline, name="reduce", instance=node.name,
            buffering=config.buffering, items=items,
            read_fn=self._read, kernel_fn=self._kernel,
            output_fn=self._write,
            stage_fn=stage_fn, retrieve_fn=retrieve_fn)

    # -- planning ------------------------------------------------------------
    def _plan_items(self) -> List[_ReduceItem]:
        """Merge every owned partition (real data, zero sim time) and cut
        the merged columns into kernel-sized chunks at key boundaries.

        A chunk is a slice of the merged columns plus each key's value
        count (``app.group_sizes``); no ``(key, [values])`` entry exists
        until a reducing kernel asks for one (``KeyGroupChunk.groups``).
        The *costs* of this merging — disk reads, decompression, merge and
        grouping CPU — are charged per chunk by the input stage, spreading
        them exactly like the streaming reader the paper describes, so the
        pipeline overlap is preserved.
        """
        cfg = self.config
        keys_per_chunk = cfg.concurrent_keys * cfg.keys_per_thread
        # Simulation granularity: batch_size (in keys) may cut one modeled
        # launch window into several smaller work items.  Launch overhead
        # and thread counts stay those of the window, so virtual time is
        # invariant; byte shares are apportioned exactly so disk counters
        # are too.
        batch = resolve_batch_size(cfg, self.app.record_format)
        step = max(1, min(keys_per_chunk, batch))
        items: List[_ReduceItem] = []
        index = 0
        wid = 0
        owned = self.pids if self.pids is not None else self.manager.owned
        for pid in owned:
            runs, disk_bytes, disk_raw = self.manager.read_partition(pid)
            if not runs:
                continue
            pairs = merge_runs(self.app, runs)
            sizes = self.app.group_sizes(pairs.keys)
            run_bits = max(1, len(runs)).bit_length()
            parts: List[Tuple[int, int, int, int, int, bool]] = []
            for wstart in range(0, len(sizes), keys_per_chunk):
                wend = min(wstart + keys_per_chunk, len(sizes))
                for sstart in range(wstart, wend, step):
                    parts.append((sstart, min(sstart + step, wend),
                                  1 if sstart == wstart else 0,
                                  wend - wstart, wid, sstart + step >= wend))
                wid += 1
            # The parts tile the keys: part i holds pairs [cuts[i], cuts[i+1]).
            cuts = [0] + np.cumsum(sizes)[[p[1] - 1 for p in parts]].tolist()
            weights = [b - a for a, b in zip(cuts, cuts[1:])]
            # Largest-remainder apportionment: per-item disk shares sum
            # *exactly* to the partition's stored/raw bytes at any batch
            # size, so the disk counters are invariant under re-batching.
            disk_shares = apportion_bytes(disk_bytes, weights)
            raw_shares = apportion_bytes(disk_raw, weights)
            for ((g0, g1, launches, wkeys, w_id, w_last), start, pairs_here,
                 d_stored, d_raw) in zip(parts, cuts, weights, disk_shares,
                                         raw_shares):
                part = pairs[start:start + pairs_here]
                items.append(_ReduceItem(
                    index=index, pid=pid, pairs=part, sizes=sizes[g0:g1],
                    nbytes=self.app.inter_schema.size_of(part),
                    disk_bytes=d_stored,
                    disk_raw=d_raw,
                    merge_items=pairs_here * run_bits,
                    launches=launches, window_keys=wkeys,
                    window_id=w_id, last=w_last,
                    merged=pairs if self.app.map_only_output else None,
                ))
                self._pid_by_index[index] = pid
                self._items_by_index[index] = items[-1]
                self._first_index_of_pid.setdefault(pid, index)
                index += 1
        # Pipeline work items are the modeled launch windows; each window
        # entry carries its sub-items (one, unless batch_size < window).
        windows: List[List[_ReduceItem]] = []
        for it in items:
            if not windows or windows[-1][-1].window_id != it.window_id:
                windows.append([])
            windows[-1].append(it)
        return windows

    # -- stage bodies ------------------------------------------------------------
    def _fetch(self, item: _ReduceItem, stream: str) -> Generator:
        """Charge one item's input: its share of the partition off disk,
        then the decompress/merge/group work."""
        if item.disk_bytes:
            yield from self.node.disk.read(item.disk_bytes, stream=stream)
        cpu = (self.config.compression.decompress_seconds(item.disk_raw)
               + self.costs.merge_seconds(item.merge_items)
               + self.costs.group_seconds(item.n_values))
        if cpu:
            yield self.node.host_work(1, cpu)

    def _read(self, window: List[_ReduceItem]) -> Generator:
        for item in window:
            yield from self._fetch(item, f"p{item.pid}")
        return window if len(window) > 1 else window[0]

    def _stage(self, chunk: KeyGroupChunk) -> Generator:
        yield from self.device.transfer(chunk.nbytes, "h2d")
        return chunk

    def _kernel(self, chunk: KeyGroupChunk) -> Generator:
        cfg = self.config
        item = self._items_by_index[chunk.index]
        # Real reduction.
        if self.app.map_only_output:
            # The merged pairs already are the output, in order.
            out_pairs = chunk.pairs
            cost = KernelCost(launches=0)
        else:
            out_pairs = []
            for key, values in chunk.groups:
                out_pairs.extend(self.app.reduce(key, values))
            # Scratch-buffer relaunches for oversized value lists (§III-C).
            relaunches = sum(map(floordiv, chunk.sizes,
                                 itertools.repeat(cfg.max_values_per_launch)))
            base = self.app.reduce_cost(self.device.spec, chunk.n_keys,
                                        chunk.n_values)
            cost = replace(base, launches=item.launches + relaunches)
        # Thread count comes from the modeled launch window, which may
        # span several simulation items (batch_size < window keys).
        threads = min(item.window_keys or chunk.n_keys, cfg.concurrent_keys) \
            * cfg.reduce_threads_per_key
        if self.faults is not None:
            yield from self._rerun_reduce_failures(chunk, cost, threads)
        yield from self.device.execute_cost(cost, threads=threads)
        self.keys_reduced += chunk.n_keys
        nbytes = self.app.output_schema.size_of(out_pairs)
        return ReduceOutput(chunk_index=chunk.index, pairs=out_pairs,
                            nbytes=nbytes)

    def _rerun_reduce_failures(self, chunk: KeyGroupChunk, cost: KernelCost,
                               threads: int) -> Generator:
        """Reduce-task crash/retry bookkeeping (§III-E).

        A reduce-task failure is planned per *partition*; the first chunk
        of the partition carries it (one logical reduce task per pid).
        Each crashed attempt loses its partial kernel work and must
        re-fetch its input from the durable intermediate runs before the
        relaunch.
        """
        pid = self._pid_by_index[chunk.index]
        if self._first_index_of_pid.get(pid) != chunk.index:
            return
        attempt = 0
        while self.faults.should_fail_reduce(pid, attempt):
            progress = self.faults.progress_for(pid, attempt)
            start = self.sim.now
            yield from self.device.execute_cost(cost.scaled(progress),
                                                threads=threads)
            # Restart: fetch the chunk's input again, as the reader did.
            yield from self._fetch(self._items_by_index[chunk.index],
                                   f"p{pid}.retry")
            attempt = end_crashed_attempt(
                self, "reduce", f"partition {pid}", start, attempt, pid=pid)

    def _retrieve(self, out: ReduceOutput) -> Generator:
        yield from self.device.transfer(out.nbytes, "d2h")
        return out

    def _write(self, out: ReduceOutput) -> Generator:
        pid = self._pid_by_index[out.chunk_index]
        item = self._items_by_index[out.chunk_index]
        # One write per modeled launch window: sub-items bank their bytes
        # and the window's last one issues the (replicated) append, so the
        # write-call count — and its per-call JNI/replica-latency costs —
        # does not depend on the simulation batch size.
        banked = self._window_bytes.pop(item.window_id, 0) + out.nbytes
        if item.last:
            yield from self.backend.write_chunk(
                self.node.node_id, banked, self.config.output_replication)
        else:
            self._window_bytes[item.window_id] = banked
        # Output stays columns: tuples only when a consumer iterates it.
        parts = self.output_pairs.setdefault(pid, [])
        parts.append(PairColumns.of(out.pairs))
        if item.merged and sum(map(len, parts)) == len(item.merged):
            parts[:] = [item.merged]    # every chunk, in order: no copy
        return out

