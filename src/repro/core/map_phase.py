"""The map-phase pipeline instantiation (§III-A of the paper).

Stage bodies:

1. **Input** — read one split from storage, cut it into records.
2. **Stage** — deliver the chunk to the compute device (disabled for
   unified-memory devices).
3. **Kernel** — run the application's map function over the whole chunk in
   parallel, collect output through the configured collector (hash table
   with optional combiner, or shared buffer pool).
4. **Retrieve** — bring the produced pairs back to host memory (disabled
   for unified memory).
5. **Output/Partition** — sort the pairs, cut them into Partitions, write
   all of them to local disk for durability, then push each Partition to
   its owner node (local ones join the in-memory cache directly; remote
   ones travel the network asynchronously).

Fault tolerance (§III-E) threads through every stage body:

* the kernel stage retries crashed task attempts with per-attempt
  progress, back to back, up to a ``max_attempts`` ceiling;
* straggling splits run their kernel at a plan-given slowdown, and the
  :class:`~repro.core.recovery.SpeculationController` may race a
  speculative copy on another node — first finisher wins, the loser is
  interrupted;
* the output stage registers the durable spill copy and every delivery
  with the job's :class:`~repro.core.coordinator.ShuffleRegistry`, which
  is what makes node-crash recovery pure bookkeeping;
* pushes check cluster health and report whether the payload actually
  reached a live owner.

A ``recovery`` phase (re-executing a dead node's splits) additionally
skips buckets the ledger already shows delivered to surviving managers,
so re-execution never duplicates data.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Dict, Generator, List, Tuple

from repro.hw.specs import DeviceKind
from repro.simt.core import Interrupt

from repro.core.batching import apportion_bytes, resolve_batch_size, \
    slice_batches
from repro.core.collector import KeyInterner, collect_map_output
from repro.core.coordinator import Split
from repro.core.costs import sort_seconds
from repro.core.data import Chunk, MapBlock, MapOutput, PairColumns
from repro.core.faults import end_crashed_attempt
from repro.core.pipeline import Pipeline, reserve_device_buffers
from repro.core.splitread import read_split_records

__all__ = ["MapPhase"]


class MapPhase:
    """One node's map pipeline plus its partition-push bookkeeping."""

    def __init__(self, job, node_id: int, kind: DeviceKind,
                 recovery: bool = False):
        # ``job`` is the JobExecution; what the stage bodies read per
        # batch is aliased here, so the hot path pays no extra hop.
        self.sim = sim = job.sim
        self.node = node = job.cluster[node_id]
        self.device = device = job.device_objs[node_id][kind]
        self.app = app = job.app
        self.config = config = job.config
        self.backend = job.backend
        self.timeline = timeline = job.timeline
        self.scheduler = scheduler = job.scheduler
        self.managers = job.managers      # node_id -> manager (live nodes)
        self.network = job.network
        self.costs = job.costs
        self.health = job.health
        self.registry = job.registry
        #: the job's TrafficMeter, threading through every push
        self.meter = job.meter
        self.recovery = recovery
        # A recovery wave re-executes on survivors, after the planned
        # faults and the straggler race have had their say: it runs
        # fault-free, unraced, one plain pipeline per node.
        self.faults = None if recovery else job.faults
        self.speculation = None if recovery else job.speculation
        # ``device_key`` marks this pipeline as one member of a multi-
        # device pool: work is then acquired through the scheduler's
        # waiting-capable pool gate instead of the plain per-node pull.
        self.device_key = device_key = (
            kind.value if len(job.map_kinds) > 1 and not recovery else None)
        self.phase_kind = "recovery" if recovery else "map"
        self._splits_by_index: Dict[int, Split] = {}
        self.push_procs: List = []        # in-flight remote pushes
        self.records_mapped = 0
        self.pairs_emitted = 0
        # Batched hot path: records per pipeline payload (the split is the
        # ceiling — the autotuned default never slices).
        self.batch_records = resolve_batch_size(config, app.record_format)
        self._split_totals: Dict[int, Tuple[int, int]] = {}
        # A batched split's outputs until its last batch; a crash drops
        # them (never durable, so the split re-executes whole).
        self._acc: Dict[int, List[MapOutput]] = {}
        self._interner = KeyInterner() if config.collector == "hash" else None
        stage_fn = None if device.spec.unified_memory else self._stage
        retrieve_fn = None if device.spec.unified_memory else self._retrieve
        #: the device memory behind the pipeline's slots; the engine frees
        #: it (``release_all``) when the map phase completes, before the
        #: reduce phase allocates
        self.device_ctx = reserve_device_buffers(
            device, config.buffering, config.chunk_size, f"{node.name}.map")
        name = "map.recovery" if recovery else "map"
        if device_key is None:
            # Classic shape: one pipeline per node, pulling splits from
            # the scheduler as the input stage becomes ready for them.
            items = self._feed()
            read_fn = self._read
        else:
            # Device pool: the read body itself negotiates with the
            # scheduler's pool gate (it may wait, or end the stream).
            scheduler.register_device(node.node_id, device_key,
                                      device.spec.gflops)
            items = itertools.count()
            read_fn = self._read_pooled
        self.pipeline = Pipeline(
            sim, timeline, name=name, instance=node.name,
            buffering=config.buffering, items=items,
            read_fn=read_fn, kernel_fn=self._kernel,
            output_fn=self._partition,
            stage_fn=stage_fn, retrieve_fn=retrieve_fn)

    def _feed(self):
        """Lazy work acquisition: ask the scheduler for the next split
        only when the input stage is ready to read it."""
        while True:
            split = self.scheduler.next_for(self.node.node_id,
                                            self.phase_kind)
            if split is None:
                return
            self._splits_by_index[split.index] = split
            yield split

    def kill(self) -> None:
        """Node crash: stop the pipeline and every in-flight push."""
        self.pipeline.kill()
        for proc in self.push_procs:
            if proc.is_alive:
                proc.interrupt("node crash")

    # -- stage bodies ------------------------------------------------------
    def _read_pooled(self, _seq: int) -> Generator:
        """Input body for one device of a multi-device pool: acquire the
        next operation through the scheduler's gate (which may wait for
        in-flight work to drain, or retire this device)."""
        split = yield from self.scheduler.pool_acquire(
            self.node.node_id, self.device_key, self.phase_kind)
        if split is None:
            return Pipeline.END
        self._splits_by_index[split.index] = split
        return (yield from self._read(split))

    def _read(self, split: Split) -> Generator:
        records, nbytes = yield from read_split_records(
            self.backend, self.node.node_id, split, self.app.record_format)
        self._split_totals[split.index] = (len(records), nbytes)
        if len(records) <= self.batch_records:
            return Chunk(index=split.index, records=records, nbytes=nbytes)
        # Fine-grained simulation: slice the split into batch payloads.
        # The read itself (and its I/O cost, already charged above)
        # happened once; byte shares are apportioned exactly so input
        # counters are invariant under re-batching.
        batches = slice_batches(records, self.batch_records)
        sizes = apportion_bytes(nbytes, [len(b) for b in batches])
        return [Chunk(index=split.index, records=recs, nbytes=size, seq=i,
                      last=(i == len(batches) - 1))
                for i, (recs, size) in enumerate(zip(batches, sizes))]

    def _stage(self, chunk: Chunk) -> Generator:
        yield from self.device.transfer(chunk.nbytes, "h2d")
        return chunk

    def _kernel(self, chunk: Chunk) -> Generator:
        if chunk.seq == 0:
            # Task-level fault injection: a crash costs (and restarts) the
            # whole map task, so only the split's first batch carries it.
            chunk = yield from self._rerun_failures(chunk)
        pairs = self.app.map_batch(chunk.records)      # the real map work
        self.records_mapped += len(chunk.records)
        use_combiner = self.config.use_combiner and self.app.has_combiner
        out, extra = collect_map_output(
            self.config.collector, self.app, self.device.spec, pairs,
            use_combiner, chunk.index, interner=self._interner)
        base = self.app.map_cost(self.device.spec, len(chunk.records),
                                 chunk.nbytes)
        if chunk.seq:
            # One modeled kernel launch covers the whole split; later
            # batches of that launch charge roofline work only, keeping
            # launch overhead granularity-invariant.
            base = replace(base, launches=0)
        cost = base + extra
        threads = self.app.preferred_threads(self.device.spec)
        slow = self.faults.slowdown_for(chunk.index) if self.faults else 1.0
        charged = cost.scaled(slow) if slow != 1.0 else cost
        start = self.sim.now
        if self.speculation is None:
            yield from self.device.execute_cost(charged, threads=threads)
        else:
            yield from self._race_speculative(chunk, charged, threads)
            self.speculation.observe(self.sim.now - start)
        self.pairs_emitted += len(out.pairs)
        out.seq = chunk.seq
        out.last = chunk.last
        return out

    def _race_speculative(self, chunk: Chunk, charged, threads) -> Generator:
        """First-finisher-wins race between the local kernel launch and a
        speculative copy on another node (launched only if the local copy
        overruns the controller's straggler threshold).

        The watchdog re-arms: while the cohort has completed too few
        launches for a trustworthy mean, it sleeps until the next launch
        finishes anywhere, then re-evaluates how far this one has overrun.
        """
        sim = self.sim
        spec = self.speculation
        start = sim.now
        local = sim.process(
            self.device.execute_cost(charged, threads=threads),
            name=f"{self.node.name}.map.k{chunk.index}")
        slept_for = None    # last threshold we slept out in full
        while local.is_alive:
            threshold = spec.threshold()
            if threshold is None:
                yield sim.any_of([local, spec.progress_event()])
                continue
            remaining = threshold - (sim.now - start)
            # Only sleep when this threshold hasn't been slept out yet:
            # float rounding can leave ``remaining`` a few ulps above zero
            # after the timer fires, which must not re-arm it.
            if remaining > 0 and threshold != slept_for:
                slept_for = threshold
                idx, _ = yield sim.any_of([local, sim.timeout(remaining)])
                if idx == 0:
                    return    # finished within the straggler threshold
                continue
            helper = spec.pick_helper(self.node.node_id,
                                      split_index=chunk.index)
            if helper is None:
                break
            split = self._splits_by_index[chunk.index]
            copy_start = sim.now
            copy = spec.launch_copy(split, helper)
            try:
                idx2, _ = yield sim.any_of([local, copy])
            except Interrupt:
                # This node crashed or left mid-race: the copy ran in vain.
                self.timeline.record(
                    "map.speculative", self.node.name, copy_start, sim.now,
                    split=chunk.index, helper=helper, won=False,
                    wasted=sim.now - copy_start)
                raise
            copy_won = idx2 == 1
            loser = local if copy_won else copy
            if loser.is_alive:
                loser.interrupt("lost the speculative race")
            # The loser's burn: the whole primary run if the copy won,
            # else the copy's run so far.
            wasted = (sim.now - start) if copy_won else (sim.now - copy_start)
            self.timeline.record(
                "map.speculative", self.node.name, copy_start,
                sim.now, split=chunk.index, helper=helper, won=copy_won,
                wasted=wasted)
            return
        yield local

    def _rerun_failures(self, chunk: Chunk) -> Generator:
        """Re-execution bookkeeping (§III-E): a crashing task discards its
        partial kernel work, backs off, and its input is rescheduled
        (re-read); ``max_attempts`` caps the retries."""
        if self.faults is None:
            return chunk
        attempt = 0
        total_records, total_bytes = self._split_totals.get(
            chunk.index, (len(chunk.records), chunk.nbytes))
        while self.faults.should_fail_map(chunk.index, attempt):
            # The wasted work is a fraction of the whole task's kernel,
            # regardless of how finely the simulation batches it.
            cost = self.app.map_cost(self.device.spec, total_records,
                                     total_bytes)
            progress = self.faults.progress_for(chunk.index, attempt)
            partial = cost.scaled(progress)
            start = self.sim.now
            yield from self.device.execute_cost(partial)
            attempt = end_crashed_attempt(
                self, "map", f"split {chunk.index}", start, attempt,
                split=chunk.index)
            # Reschedule: reload the split from (replicated) storage.  A
            # batched split's payload is its first batch only: it takes back
            # that exact record slice (the read is deterministic), so the
            # re-run neither drops nor duplicates the other batches' records.
            records, _ = yield from read_split_records(
                self.backend, self.node.node_id,
                self._splits_by_index[chunk.index], self.app.record_format)
            chunk = replace(chunk, records=records[:len(chunk.records)])
        return chunk

    def _retrieve(self, out: MapOutput) -> Generator:
        yield from self.device.transfer(out.raw_bytes, "d2h")
        return out

    def _partition(self, out: MapOutput) -> Generator:
        """Stage 5: sort, partition, persist, push.

        A split simulated as several batches accumulates its columns here
        batch by batch (charging the linear decode share per batch); the
        whole-split work — bucketing, compression, the durable spill,
        registry marks and pushes — runs once, on the final batch, so the
        charged totals and all byte counters match the single-batch run.
        """
        cfg = self.config
        registry = self.registry
        total_partitions = registry.total_partitions
        split_index = out.chunk_index
        single = out.seq == 0 and out.last
        batches = [out]
        if not single:
            self._acc.setdefault(split_index, []).append(out)
            # Decode is linear in items/bytes: charge this batch's share
            # as it streams through, leaving the superlinear sort (and
            # the compression of the complete output) to the last batch.
            cpu_start = self.sim.now
            yield self.node.host_work(
                cfg.partitioner_threads,
                self.costs.decode_seconds(out.decode_items, out.raw_bytes))
            self.timeline.record("map.partition_cpu", self.node.name,
                                 cpu_start, self.sim.now)
            if not out.last:
                return split_index
            batches = self._acc.pop(split_index)
        pairs = PairColumns.concat(b.pairs for b in batches)
        raw_total = sum(b.raw_bytes for b in batches)
        decode_items = sum(b.decode_items for b in batches)
        # Real work: a partition index per key, then one stable (partition,
        # key) order puts every bucket in place and one gather applies it.
        pids = self.app.partition_batch(pairs.keys, total_partitions)
        pairs = pairs.take(self.app.sort_order(pairs.keys, pids))
        # Cost: decode + sort + compress, spread over N partitioner threads.
        cpu = (sort_seconds(self.costs, decode_items)
               + cfg.compression.compress_seconds(raw_total))
        if single:
            cpu += self.costs.decode_seconds(decode_items, raw_total)
        cpu_start = self.sim.now
        yield self.node.host_work(cfg.partitioner_threads, cpu)
        # The CPU component alone, separate from the stage total (which
        # also contains the durability disk write): Table III's "no
        # contention from kernel threads" effect lives here.
        self.timeline.record("map.partition_cpu", self.node.name,
                             cpu_start, self.sim.now)
        # Durability: one full copy of the map output on the local disk,
        # appended to the node's spill area (one sequential write stream).
        stored_total = cfg.compression.compressed_size(raw_total)
        yield from self.node.disk.write(stored_total, stream="spill")
        # One block holds every bucket, a slice of the ordered columns.
        block = MapBlock(split_index, pairs, pids, total_partitions,
                         self.app.inter_schema)
        registry.mark_durable(self.node.node_id, block)
        # Push each Partition to its owner.  Pushes to the same peer are
        # batched into one message per chunk (one socket per peer), and
        # they run asynchronously: the pipeline's output stage does not
        # wait for the network.  A recovery wave does not push again what
        # survived the crash.
        by_owner = registry.route(
            block, self.health.alive if self.recovery else None)
        local = by_owner.pop(self.node.node_id, None)
        if local:
            registry.deliver(self.managers, self.node.node_id, block, local)
        if by_owner:
            self.push_procs.append(self.sim.process(
                self._push(block, by_owner),
                name=f"{self.node.name}.push.s{split_index}"))
        if self.device_key is not None:
            # Pool accounting: this operation is off the device's plate.
            self.scheduler.note_done(self.node.node_id, self.device_key,
                                     float(self._splits_by_index[
                                         split_index].length))
        return split_index    # not ``out``: its arrays pin the read buffer

    def _push(self, block: MapBlock,
              remote: Dict[int, List[int]]) -> Generator:
        """Asynchronous remote Partition push (Glasswing pushes; Hadoop
        pulls — one of the paper's stated latency advantages).  One pusher
        per split: each peer's message overhead runs up front on its own
        hardware thread (the node's CPU caps the aggregate), then the
        messages go out back to back, which is how they leave the NIC."""
        peers = len(remote)
        yield self.node.host_work(peers, self.costs.push_overhead * peers)
        compressed_size = self.config.compression.compressed_size
        for owner, pids in remote.items():
            stored = sum(compressed_size(block.raw[pid]) for pid in pids)
            start = self.sim.now
            delivered = yield from self.network.send(self.node.node_id,
                                                     owner, stored,
                                                     meter=self.meter)
            self.timeline.record("map.push", self.node.name, start,
                                 self.sim.now, pids=len(pids), bytes=stored,
                                 delivered=bool(delivered),
                                 dst=self.managers[owner].node.name)
            if delivered is False:
                continue    # owner is gone; recovery re-routes these runs
            self.registry.deliver(self.managers, owner, block, pids)
