"""The Scheduler interface: pluggable placement of map/reduce operations.

Placement used to be hard-coded in two places — a one-shot static
split→node mapping computed by the coordinator before the job started,
and a private copy of the same affinity logic in the recovery path.  The
:class:`Scheduler` extracts both behind a pull-based interface:

* **planning** — :meth:`plan` seeds the policy with the job's splits (and
  :meth:`plan_recovery` with the splits a crash forces to re-execute);
* **work acquisition** — each map pipeline pulls its next split with
  :meth:`next_for` (or, for multi-device nodes, the waiting-capable
  :meth:`pool_acquire`), so placement decisions happen at *runtime* under
  whatever policy is installed;
* **re-homing & speculation** — a dead node's partitions move to
  survivors through :meth:`rehome`, and speculative copies pick their
  helper node through :meth:`pick_helper`, so fault tolerance is a
  scheduler re-enqueue rather than bespoke assignment code;
* **elastic membership** — :meth:`node_joined` / :meth:`node_left`
  maintain the policy's active set mid-job: a joining node starts
  pulling queued work through the same ``next_for`` seam (the pull
  interface is what makes joins zero engine change), and a leaving
  node's queued work flows back to the remaining actives;
* **observability** — every placement leaves a zero-length
  ``sched.place`` span on the timeline (exported to the Chrome trace,
  and the source of ``PipelineReport.placement()``'s per-node
  histogram), placement and locality hit/miss counters accumulate on the
  scheduler, and a live telemetry hub gets queue-depth gauges.

Heterogeneous device pools
--------------------------

A node may run several pipelines concurrently (e.g. CPU+GPU).  Each
pipeline registers its device with :meth:`register_device` and acquires
work through :meth:`pool_acquire`, which adds a speed-aware gate on top
of the policy's choice: the pool's fastest device pulls freely (keeping
its pipeline prefetched), while a slower device keeps at most one
operation in flight and *retires* — ends its pipeline — once a single
operation on it would take longer than the rest of the pool needs to
drain everything that is left.  That gate is what lets a 20x-slower CPU
contribute its proportional share without ever extending the makespan
by hoarding tail operations.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Dict, Generator, List, Optional,
                    Sequence)

from repro.simt.core import Event, Simulator
from repro.simt.trace import Timeline

from repro.core.sched.affinity import holders_by_split

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.coordinator import ShuffleRegistry, Split
    from repro.storage.backend import StorageBackend

__all__ = ["Scheduler"]


class _PoolDevice:
    """Per-(node, device) accounting for the heterogeneous-pool gate."""

    __slots__ = ("key", "speed", "order", "pending", "retired")

    def __init__(self, key: str, speed: float, order: int):
        self.key = key
        self.speed = max(speed, 1e-9)
        self.order = order
        self.pending = 0.0        # granted-but-unfinished cost (bytes)
        self.retired = False


class Scheduler:
    """Base class: shared bookkeeping + the policy hooks.

    Policies implement ``_plan`` / ``_plan_recovery`` (seed the queues),
    ``_peek`` / ``_take`` (choose and consume the next operation for a
    node) and ``_backlog_cost`` (bytes a node could still pull — the
    pool gate's drain estimate).
    """

    name = "?"

    def __init__(self, sim: Optional[Simulator] = None,
                 timeline: Optional[Timeline] = None):
        self.sim = sim
        self.timeline = timeline
        self.n_nodes = 0
        self.active: List[int] = []
        self._backend: Optional["StorageBackend"] = None
        self.placements = 0
        self.locality_hits = 0
        self.locality_misses = 0
        self.speculative_placements = 0
        self._holders: Dict[int, frozenset] = {}
        self._pools: Dict[int, Dict[str, _PoolDevice]] = {}
        self._pool_waiters: Dict[int, List[Event]] = {}
        self._gauges_done = False
        self._gate_seq = 0

    # -- planning ----------------------------------------------------------
    def plan(self, splits: Sequence["Split"], backend: "StorageBackend",
             n_nodes: int, active: Optional[Sequence[int]] = None) -> None:
        """Seed the policy with the job's map operations.

        ``active`` restricts initial placement to an explicit node subset
        (elastic jobs start on part of the hardware); ``None`` means all
        ``n_nodes`` participate, the classic behavior."""
        self.n_nodes = n_nodes
        self.active = sorted(active) if active is not None \
            else list(range(n_nodes))
        self._backend = backend
        self._holders.update(holders_by_split(splits, backend))
        self._plan(splits, backend, n_nodes)
        self._register_gauges()

    def plan_recovery(self, splits: Sequence["Split"],
                      backend: "StorageBackend",
                      survivors: Sequence[int]) -> None:
        """Enqueue the splits a node crash forces to re-execute."""
        self._holders.update(holders_by_split(splits, backend))
        self._plan_recovery(splits, backend, sorted(survivors))

    # -- elastic membership ------------------------------------------------
    def node_joined(self, node_id: int) -> None:
        """A standby node became active mid-job: admit it to the active
        set and let the policy fold it into its queues.  The node starts
        pulling work through the ordinary ``next_for`` path immediately
        after."""
        if node_id not in self.active:
            self.active = sorted(set(self.active) | {node_id})
        self._node_joined(node_id)

    def node_left(self, node_id: int) -> None:
        """An active node is draining out: drop it from the active set
        and let the policy re-route its queued (not-yet-pulled) work."""
        self.active = [n for n in self.active if n != node_id]
        self._node_left(node_id)

    def _node_joined(self, node_id: int) -> None:
        """Policy hook; the default (global-pool policies) needs nothing —
        a pull from the new node just works."""

    def _node_left(self, node_id: int) -> None:
        """Policy hook; the default (global-pool policies) needs nothing —
        the departed node simply stops pulling."""

    # -- policy hooks ------------------------------------------------------
    def _plan(self, splits: Sequence["Split"], backend: "StorageBackend",
              n_nodes: int) -> None:
        raise NotImplementedError

    def _plan_recovery(self, splits: Sequence["Split"],
                       backend: "StorageBackend",
                       survivors: List[int]) -> None:
        raise NotImplementedError

    def _peek(self, node_id: int, phase: str) -> Optional["Split"]:
        """The operation the policy would hand ``node_id`` next (no pop)."""
        raise NotImplementedError

    def _take(self, node_id: int, split: "Split", phase: str) -> None:
        """Consume a peeked operation (it was granted)."""
        raise NotImplementedError

    def _backlog_cost(self, node_id: int, phase: str) -> float:
        """Bytes of queued work ``node_id`` could still acquire."""
        raise NotImplementedError

    def queue_depth(self) -> int:
        """Operations still awaiting placement (the telemetry gauge)."""
        raise NotImplementedError

    def recovery_nodes(self) -> List[int]:
        """Survivors that should run a recovery pipeline."""
        raise NotImplementedError

    # -- work acquisition --------------------------------------------------
    def next_for(self, node_id: int, phase: str = "map"
                 ) -> Optional["Split"]:
        """Pull the next operation for a single-device node pipeline."""
        split = self._peek(node_id, phase)
        if split is None:
            return None
        self._take(node_id, split, phase)
        self._note_place(node_id, split, phase)
        return split

    def register_device(self, node_id: int, key: str, speed: float) -> None:
        """Declare one device of ``node_id``'s pool (``speed`` is a
        relative throughput proxy, e.g. effective GFLOP/s)."""
        pool = self._pools.setdefault(node_id, {})
        if key not in pool:
            pool[key] = _PoolDevice(key, speed, order=len(pool))

    def note_done(self, node_id: int, key: Optional[str],
                  cost: float) -> None:
        """A granted operation completed on ``(node_id, key)`` — shrink
        the device's in-flight backlog and wake pool waiters."""
        if key is None:
            return
        dev = self._pools.get(node_id, {}).get(key)
        if dev is None:
            return
        dev.pending = max(0.0, dev.pending - cost)
        self._fire_pool(node_id)

    def pool_acquire(self, node_id: int, key: str, phase: str = "map"
                     ) -> Generator:
        """Pull work for one device of a multi-device node (process-style:
        may yield simulation events while waiting for the gate).

        Returns the granted split, or ``None`` when this device is done
        for good (pool drained, or the device retired because the rest of
        the pool absorbs the remainder faster).
        """
        pool = self._pools[node_id]
        me = pool[key]
        while True:
            split = self._peek(node_id, phase)
            if split is None:
                me.retired = True
                self._fire_pool(node_id)
                return None
            rest = [d for d in pool.values()
                    if d.key != key and not d.retired]
            fastest = not rest or all(
                (me.speed, -me.order) >= (d.speed, -d.order) for d in rest)
            if not fastest:
                if me.pending > 0:
                    # One operation in flight is this device's limit: a
                    # slow pipeline prefetching would hoard tail work.
                    t_gate = self.sim.now
                    yield self._pool_wait(node_id)
                    self._note_gate_wait(node_id, key, t_gate)
                    continue
                cost = float(split.length)
                rest_speed = sum(d.speed for d in rest)
                rest_load = (sum(d.pending for d in rest)
                             + self._backlog_cost(node_id, phase))
                if cost / me.speed > rest_load / rest_speed:
                    # Taking this op here would outlast the rest of the
                    # pool draining everything — bow out.
                    me.retired = True
                    self._fire_pool(node_id)
                    return None
            self._take(node_id, split, phase)
            me.pending += float(split.length)
            self._note_place(node_id, split, phase, device=key)
            return split

    def _note_gate_wait(self, node_id: int, key: str, t_gate: float) -> None:
        """A slow device sat at the pool gate from ``t_gate`` until now.

        Recorded as a zero-length ``sched.gate`` span at the release
        instant plus a matching ``pool-gate`` wait edge, so the causal
        profiler attributes the throttling to the device pool."""
        if self.timeline is None or self.sim is None:
            return
        now = self.sim.now
        if now <= t_gate:
            return
        self._gate_seq += 1
        name = f"node{node_id}"
        self.timeline.record("sched.gate", name, now, now,
                             t_req=t_gate, device=key, policy=self.name,
                             op=self._gate_seq)
        self.timeline.record_wait("pool-gate", f"{name}.pool",
                                  "sched.gate", name, t_gate, now,
                                  device=key, op=self._gate_seq)

    def _pool_wait(self, node_id: int) -> Event:
        ev = Event(self.sim)
        self._pool_waiters.setdefault(node_id, []).append(ev)
        return ev

    def _fire_pool(self, node_id: int) -> None:
        waiters = self._pool_waiters.pop(node_id, [])
        for ev in waiters:
            if not ev.triggered:
                ev.succeed(None)

    # -- fault tolerance ---------------------------------------------------
    def rehome(self, pid: int, survivors: Sequence[int],
               registry: Optional["ShuffleRegistry"] = None) -> int:
        """New owner for a dead node's partition (deterministic spread —
        the pre-refactor behaviour; load-aware policies override)."""
        return survivors[pid % len(survivors)]

    def pick_helper(self, exclude: int, alive_nodes: Sequence[int],
                    active: Dict[int, int],
                    split_index: Optional[int] = None) -> Optional[int]:
        """Node to run a speculative copy on: the survivor other than
        ``exclude`` that :meth:`_helper_rank` puts first (``active`` counts
        running copies per node)."""
        candidates = [n for n in alive_nodes if n != exclude]
        if not candidates:
            return None
        holders = self._holders.get(split_index, frozenset())
        helper = min(candidates, key=lambda n: self._helper_rank(
            n, active[n], n in holders))
        self._note_speculative(helper, split_index)
        return helper

    def _helper_rank(self, node: int, active: int, local: bool) -> tuple:
        """Least-loaded first."""
        return active, node

    def _note_speculative(self, node_id: int,
                          split_index: Optional[int]) -> None:
        self.speculative_placements += 1
        name = f"node{node_id}"
        if self.timeline is not None and self.sim is not None:
            meta: Dict[str, Any] = dict(phase="speculative", policy=self.name)
            if split_index is not None:
                meta["split"] = split_index
            self.timeline.record("sched.place", name,
                                 self.sim.now, self.sim.now, **meta)

    # -- observability -----------------------------------------------------
    def _note_place(self, node_id: int, split: "Split", phase: str,
                    device: Optional[str] = None) -> None:
        holders = self._holders.get(split.index)
        local: Optional[bool] = None
        if holders is not None:
            local = node_id in holders
            if local:
                self.locality_hits += 1
            else:
                self.locality_misses += 1
        self.placements += 1
        name = f"node{node_id}"
        if self.timeline is not None and self.sim is not None:
            meta: Dict[str, Any] = dict(split=split.index, phase=phase,
                                        policy=self.name)
            if local is not None:
                meta["local"] = local
            if device is not None:
                meta["device"] = device
            self.timeline.record("sched.place", name,
                                 self.sim.now, self.sim.now, **meta)

    def place_reduce(self, node_id: int, pids: Sequence[int],
                     device: Optional[str] = None) -> None:
        """Record the reduce-side placements (partition data is local to
        its owner, so these are locality hits by construction)."""
        name = f"node{node_id}"
        self.placements += len(pids)
        if self.timeline is not None and self.sim is not None:
            meta: Dict[str, Any] = dict(phase="reduce", policy=self.name,
                                        partitions=len(pids))
            if device is not None:
                meta["device"] = device
            self.timeline.record("sched.place", name,
                                 self.sim.now, self.sim.now, **meta)

    @property
    def locality_hit_rate(self) -> Optional[float]:
        """Fraction of locality-aware placements that hit a replica
        holder (``None`` when the backend exposes no locality)."""
        total = self.locality_hits + self.locality_misses
        if not total:
            return None
        return self.locality_hits / total

    def _register_gauges(self) -> None:
        tele = getattr(self.timeline, "telemetry", None) \
            if self.timeline is not None else None
        if tele is None or self._gauges_done:
            return
        self._gauges_done = True
        tele.gauge("glasswing_sched_queue_depth",
                   help="operations awaiting placement",
                   probe=self.queue_depth, policy=self.name)
        tele.gauge("glasswing_sched_local_placements",
                   help="placements that hit a local replica",
                   probe=lambda: self.locality_hits, policy=self.name)
        tele.gauge("glasswing_sched_remote_placements",
                   help="placements that missed every local replica",
                   probe=lambda: self.locality_misses, policy=self.name)
