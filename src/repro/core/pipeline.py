"""The generic 5-stage Glasswing pipeline (§III-A, §III-C, §III-D).

Five stages — Input, Stage, Kernel, Retrieve, Output — connected by FIFO
stores, with data buffers interlocking them into two groups:

* the **input group** (Input, Stage, Kernel) shares ``buffering`` input
  buffer slots: the Input stage acquires a slot before loading a chunk and
  the Kernel stage releases it when the launch finishes;
* the **output group** (Kernel, Retrieve, Output) shares ``buffering``
  output slots: the Kernel acquires one before launching and the Output
  stage releases it after sinking the result.

With single buffering the stages within each group serialise (but the two
groups still overlap — they share no buffers); with double/triple
buffering the stages of a group run concurrently.  This is exactly the
paper's §III-D interlock description, and elapsed time converging to the
dominant stage (Tables II/III) is an emergent property.

The Stage and Retrieve stages are pass-throughs when the device has
unified memory (CPU devices), as in the paper.  On a discrete device each
slot is backed by a real device buffer (:func:`reserve_device_buffers`).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.ocl.runtime import Context, Device
from repro.simt.core import Interrupt, Simulator
from repro.simt.resources import BufferPool, Store, StoreClosed
from repro.simt.trace import Timeline

__all__ = ["Pipeline", "StageFn", "reserve_device_buffers"]

# A stage function receives the payload and yields simulation events,
# returning the (possibly transformed) payload for the next stage.
StageFn = Callable[[Any], Generator]


def reserve_device_buffers(device: Device, buffering: int, nbytes: int,
                           prefix: str) -> Context:
    """Allocate the device memory behind a pipeline's slots.

    A discrete device holds one ``nbytes`` buffer per input and per output
    slot (``{prefix}.in0``, ..., ``{prefix}.out0``, ...), so the §III-D
    trade-off ("more buffers ... may be a limited resource for GPUs") is
    enforced by the device's memory accounting: ``OutOfDeviceMemory``
    raises here, when the phase is built.  A unified-memory device copies
    nothing and gets an empty context.  The owner frees every buffer with
    :meth:`Context.release_all` once its phase is over.
    """
    ctx = Context(device.sim, [device])
    if not device.spec.unified_memory:
        for group in ("in", "out"):
            for i in range(buffering):
                ctx.alloc_buffer(device, nbytes, name=f"{prefix}.{group}{i}")
    return ctx


class Pipeline:
    """One pipeline instantiation on one node.

    Parameters
    ----------
    sim, timeline:
        Simulation context; spans are recorded as ``{name}.{stage}``.
    name:
        Trace prefix, e.g. ``"map"`` or ``"reduce"``.
    instance:
        Trace span label (typically the node name).
    buffering:
        1, 2 or 3 — the §III-D buffering level.
    items:
        Work-item descriptors consumed by ``read_fn`` (input splits for
        the map pipeline, merged-run cursors for the reduce pipeline).
        May be a lazy iterable: scheduler-fed pipelines pull their next
        item only when the input stage is ready for it.  A ``read_fn``
        may also return :data:`Pipeline.END` to terminate the input
        stream early (e.g. a device pool with no work left for this
        device).
    read_fn, kernel_fn, output_fn:
        Mandatory stage bodies (process-style generators).
    stage_fn, retrieve_fn:
        Optional host<->device transfer stages; ``None`` disables them
        (unified memory).
    """

    #: Sentinel a ``read_fn`` may return to end the input stream early.
    END = object()

    #: pipeline-instance tokens: a multi-device node runs several
    #: pipelines with the same ``(name, instance)`` concurrently, so
    #: spans and wait edges carry a per-pipeline ``op`` meta to keep
    #: the causal matcher's identities unambiguous.
    _uids = itertools.count()

    def __init__(self, sim: Simulator, timeline: Timeline, name: str,
                 instance: str, buffering: int,
                 items: Iterable[Any],
                 read_fn: StageFn,
                 kernel_fn: StageFn,
                 output_fn: StageFn,
                 stage_fn: Optional[StageFn] = None,
                 retrieve_fn: Optional[StageFn] = None):
        if buffering not in (1, 2, 3):
            raise ValueError("buffering level must be 1, 2 or 3")
        self.sim = sim
        self.timeline = timeline
        self.name = name
        self.instance = instance
        self.items = items
        self.read_fn = read_fn
        self.stage_fn = stage_fn
        self.kernel_fn = kernel_fn
        self.retrieve_fn = retrieve_fn
        self.output_fn = output_fn
        self.in_pool = BufferPool(sim, buffering, name=f"{instance}.{name}.in")
        self.out_pool = BufferPool(sim, buffering, name=f"{instance}.{name}.out")
        self._uid = next(Pipeline._uids)
        self.elapsed: Optional[float] = None
        self.outputs: List[Any] = []
        self.killed = False
        self._stage_procs: List = []
        # Wait-distribution instruments, bound in _drive() when the
        # timeline carries a live telemetry hub (None = sampling off).
        self._slot_wait_hist = None
        self._queue_wait_hist = None
        # Queues still holding (slot, payload) tuples when the pipeline is
        # killed; kill()'s reaper drains them so the slots return to their
        # pool instead of leaking with the dropped chunks.
        self._slot_queues: List[Tuple[Store, BufferPool]] = []

    # -- public ------------------------------------------------------------
    def run(self):
        """Start all five stage processes; returns the completion event."""
        return self.sim.process(self._drive(), name=f"{self.instance}.{self.name}")

    def kill(self) -> None:
        """Crash the pipeline mid-flight (node loss): every live stage
        process is interrupted at its current yield point, discarding the
        in-flight chunks.  The driver then completes normally with the
        outputs produced so far; the engine's recovery layer is
        responsible for re-executing what was lost.

        Buffer-slot accounting survives the crash: interrupted stages
        release the slots they hold from their interrupt handlers, and a
        reaper process (scheduled after every interrupt has been
        delivered) drains the inter-stage queues, returning the slots of
        the discarded in-flight chunks to their pools."""
        self.killed = True
        for proc in self._stage_procs:
            if proc.is_alive:
                proc.interrupt("node crash")
        if self._slot_queues:
            self.sim.process(self._reap(),
                             name=f"{self.instance}.{self.name}.reap")

    @property
    def slots_leaked(self) -> int:
        """Buffer slots still held once the pipeline has terminated."""
        return self.in_pool.outstanding + self.out_pool.outstanding

    # -- internals --------------------------------------------------------------
    def _drive(self) -> Generator:
        start = self.sim.now
        sim = self.sim
        q_read = Store(sim, name=f"{self.name}.q.read")
        q_stage = Store(sim, name=f"{self.name}.q.stage")
        q_kernel = Store(sim, name=f"{self.name}.q.kernel")
        q_retrieve = Store(sim, name=f"{self.name}.q.retrieve")
        # Items queued before the kernel carry input-group slots; items
        # queued after it carry output-group slots.
        self._slot_queues = [(q_read, self.in_pool), (q_stage, self.in_pool),
                             (q_kernel, self.out_pool),
                             (q_retrieve, self.out_pool)]

        tele = self.timeline.telemetry
        if tele is not None:
            base = dict(phase=self.name, node=self.instance)
            for qname, queue in (("read", q_read), ("stage", q_stage),
                                 ("kernel", q_kernel),
                                 ("retrieve", q_retrieve)):
                tele.gauge("glasswing_pipeline_queue_depth",
                           help="items waiting in the inter-stage queue",
                           probe=lambda q=queue: len(q),
                           queue=qname, **base)
            for pname, pool in (("in", self.in_pool), ("out", self.out_pool)):
                tele.gauge("glasswing_pipeline_slots_in_use",
                           help="buffer slots held by in-flight items "
                                "(capacity = the buffering level)",
                           probe=lambda p=pool: p.outstanding,
                           capacity=pool.slots, pool=pname, **base)
                tele.gauge("glasswing_pipeline_slot_waiters",
                           help="stages blocked waiting for a buffer slot",
                           probe=lambda p=pool: p.probe()["waiters"],
                           pool=pname, **base)
            self._slot_wait_hist = tele.histogram(
                "glasswing_pipeline_slot_wait_seconds",
                help="simulated seconds stages waited for buffer slots",
                **base)
            self._queue_wait_hist = tele.histogram(
                "glasswing_pipeline_queue_wait_seconds",
                help="simulated seconds stages waited on inter-stage queues",
                **base)

        procs = [
            sim.process(self._input_stage(q_read), name=f"{self.name}.input"),
            sim.process(self._mid_stage("stage", self.stage_fn, q_read, q_stage,
                                        self.in_pool),
                        name=f"{self.name}.stage"),
            sim.process(self._kernel_stage(q_stage, q_kernel),
                        name=f"{self.name}.kernel"),
            sim.process(self._mid_stage("retrieve", self.retrieve_fn,
                                        q_kernel, q_retrieve, self.out_pool),
                        name=f"{self.name}.retrieve"),
            sim.process(self._output_stage(q_retrieve),
                        name=f"{self.name}.output"),
        ]
        self._stage_procs = procs
        yield sim.all_of(procs)
        self.elapsed = sim.now - start
        self.timeline.record(
            f"{self.name}.elapsed", self.instance, start, sim.now,
            slots_acquired=self.in_pool.acquired + self.out_pool.acquired,
            slots_released=self.in_pool.released + self.out_pool.released,
            slots_leaked=self.slots_leaked,
            items=len(self.outputs), killed=self.killed)
        return self.outputs

    def _reap(self) -> Generator:
        """Post-kill slot reclamation: runs after the interrupt hooks have
        been delivered (same virtual time, later event order), so stage
        handlers have already cancelled their pending acquires and the
        queued chunks are truly orphaned.  Sub-batch entries carry ``None``
        (their modeled item's slot rides the final sub-batch only)."""
        yield self.sim.timeout(0.0)
        for queue, pool in self._slot_queues:
            while len(queue):
                slot, _payload = (yield queue.get())
                if slot is not None:
                    pool.release(slot)

    def _observe_waits(self, slot_wait: Optional[float] = None,
                       queue_wait: Optional[float] = None) -> None:
        if self._slot_wait_hist is None:
            return
        if slot_wait is not None:
            self._slot_wait_hist.observe(slot_wait)
        if queue_wait is not None:
            self._queue_wait_hist.observe(queue_wait)

    def _span(self, stage: str, start: float, **meta: Any) -> None:
        self.timeline.record(f"{self.name}.{stage}", self.instance,
                             start, self.sim.now, op=self._uid, **meta)

    def _wait_edge(self, stage: str, wait_class: str, resource: str,
                   start: float, end: float) -> None:
        """Attribute a blocking interval to the stage's next span.

        Called at span-record time (never eagerly at the wait site) so an
        op interrupted mid-flight leaves neither a span nor an orphan
        edge — the per-span decomposition invariant stays exact under the
        fault matrix."""
        self.timeline.record_wait(wait_class, resource,
                                  f"{self.name}.{stage}", self.instance,
                                  start, end, op=self._uid)

    @staticmethod
    def _payload_meta(payload: Any) -> dict:
        """Byte/chunk counters carried by the data units (observability)."""
        meta = {}
        nbytes = getattr(payload, "nbytes", None)
        if nbytes is None:
            nbytes = getattr(payload, "raw_bytes", None)
        if nbytes is not None:
            meta["bytes"] = nbytes
        chunk = getattr(payload, "index", None)
        if chunk is None:
            chunk = getattr(payload, "chunk_index", None)
        if chunk is not None:
            meta["chunk"] = chunk
        return meta

    def _input_stage(self, downstream: Store) -> Generator:
        for item in self.items:
            t_req = self.sim.now
            slot = yield from self.in_pool.take()
            slot_wait = self.sim.now - t_req
            self._observe_waits(slot_wait=slot_wait)
            start = self.sim.now
            try:
                payload = yield from self.read_fn(item)
            except Interrupt:
                self.in_pool.release(slot)
                raise
            if payload is Pipeline.END:
                # The reader declared the stream over (scheduler-fed
                # device pools): hand the slot back and stop pulling.
                self.in_pool.release(slot)
                break
            # Batched fan-out: a read_fn may return a list of payloads
            # (one modeled item sliced into several simulation batches).
            # The whole item shares ONE input slot — the §III-D interlock
            # counts modeled items in flight, not simulation batches, so
            # virtual time is invariant under re-batching.  Only the final
            # batch carries the slot downstream (the kernel stage releases
            # it there); earlier batches carry ``None``.  The put enqueues
            # synchronously, so once the final batch is offered the slot
            # belongs to the queue (the kill-reaper reclaims it from
            # there), not to this stage.
            payloads = payload if isinstance(payload, list) else [payload]
            owned = True
            for n, part in enumerate(payloads):
                final = n == len(payloads) - 1
                # The slot wait belongs to the modeled item, not to each
                # simulation batch: only the first batch's span carries the
                # wait, the request time and the causal edge.
                self._span("input", start, slot=slot,
                           slot_wait=slot_wait if n == 0 else 0.0,
                           t_req=t_req if n == 0 else start,
                           **self._payload_meta(part))
                if n == 0:
                    self._wait_edge("input", "buffer-slot",
                                    self.in_pool.name, t_req,
                                    t_req + slot_wait)
                put_ev = downstream.put((slot if final else None, part))
                if final:
                    owned = False
                try:
                    yield put_ev
                except Interrupt:
                    if owned:
                        self.in_pool.release(slot)
                    raise
                start = self.sim.now
        downstream.close()

    def _mid_stage(self, stage_name: str, fn: Optional[StageFn],
                   upstream: Store, downstream: Store,
                   pool: BufferPool) -> Generator:
        while True:
            t_req = self.sim.now
            try:
                slot, payload = yield upstream.get()
            except StoreClosed:
                downstream.close()
                return
            queue_wait = self.sim.now - t_req
            self._observe_waits(queue_wait=queue_wait)
            if fn is not None:
                start = self.sim.now
                try:
                    payload = yield from fn(payload)
                except Interrupt:
                    if slot is not None:
                        pool.release(slot)
                    raise
                self._span(stage_name, start, queue_wait=queue_wait,
                           t_req=t_req, **self._payload_meta(payload))
            else:
                # Unified memory: the stage is a pass-through.  A
                # zero-length marker span keeps the five-stage shape
                # visible to trace exporters and breakdown tables.
                self._span(stage_name, self.sim.now, passthrough=True,
                           queue_wait=queue_wait, t_req=t_req,
                           **self._payload_meta(payload))
            self._wait_edge(stage_name, "queue", upstream.name,
                            t_req, t_req + queue_wait)
            yield downstream.put((slot, payload))

    def _kernel_stage(self, upstream: Store, downstream: Store) -> Generator:
        # One output slot per modeled item: acquired at the item's first
        # batch, carried downstream with its final batch (the output stage
        # releases it there).  Mirrors the input-group slot sharing, so the
        # interlock depth is measured in modeled items at any batch size.
        held_out = None
        while True:
            t_req = self.sim.now
            try:
                in_slot, payload = yield upstream.get()
            except StoreClosed:
                downstream.close()
                return
            except Interrupt:
                if held_out is not None:
                    self.out_pool.release(held_out)
                raise
            queue_wait = self.sim.now - t_req
            t_slot = self.sim.now
            if held_out is None:
                try:
                    held_out = yield from self.out_pool.take()
                except Interrupt:
                    if in_slot is not None:
                        self.in_pool.release(in_slot)
                    raise
            slot_wait = self.sim.now - t_slot
            self._observe_waits(slot_wait=slot_wait, queue_wait=queue_wait)
            start = self.sim.now
            try:
                result = yield from self.kernel_fn(payload)
            except Interrupt:
                if in_slot is not None:
                    self.in_pool.release(in_slot)
                self.out_pool.release(held_out)
                raise
            final = in_slot is not None
            if final:
                self.in_pool.release(in_slot)
            self._span("kernel", start, slot=held_out, slot_wait=slot_wait,
                       queue_wait=queue_wait, t_req=t_req,
                       **self._payload_meta(result))
            self._wait_edge("kernel", "queue", upstream.name,
                            t_req, t_req + queue_wait)
            self._wait_edge("kernel", "buffer-slot", self.out_pool.name,
                            t_slot, t_slot + slot_wait)
            put_ev = downstream.put((held_out if final else None, result))
            out_slot = held_out
            if final:
                held_out = None
            try:
                yield put_ev
            except Interrupt:
                if held_out is not None:
                    self.out_pool.release(out_slot)
                raise

    def _output_stage(self, upstream: Store) -> Generator:
        while True:
            t_req = self.sim.now
            try:
                slot, payload = yield upstream.get()
            except StoreClosed:
                return
            queue_wait = self.sim.now - t_req
            self._observe_waits(queue_wait=queue_wait)
            start = self.sim.now
            try:
                sunk = yield from self.output_fn(payload)
            except Interrupt:
                if slot is not None:
                    self.out_pool.release(slot)
                raise
            if slot is not None:
                self.out_pool.release(slot)
            self._span("output", start, queue_wait=queue_wait, t_req=t_req,
                       **self._payload_meta(payload))
            self._wait_edge("output", "queue", upstream.name,
                            t_req, t_req + queue_wait)
            self.outputs.append(sunk if sunk is not None else payload)
