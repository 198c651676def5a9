"""Job orchestration: map phase ∥ merge phase, then reduce phase.

"Execution starts with launching the map phase and, concurrently, the
merge phase at each node.  After the map phase completes, the merge phase
continues until it has received all data sent to it by map pipeline
instantiations at other nodes.  After the merge phase completes, the
reduce phase is started."  (§III)

A :class:`JobExecution` is that sequence plus the per-job state it runs
over, and the context the phases read: :class:`MapPhase`,
:class:`ReducePhase`, :func:`~repro.core.recovery.run_recovery` and the
transitions of :mod:`repro.core.membership` all take the job.

Fault tolerance (§III-E): a per-job
:class:`~repro.core.faults.ClusterHealth` view and
:class:`~repro.core.coordinator.ShuffleRegistry` thread through the
storage, network and phase layers.  The timed events of the
:class:`~repro.core.faults.FaultPlan` — node crashes, joins, leaves,
coordinator crashes — are armed by :func:`repro.core.membership.arm`; a
node lost during the map/shuffle window takes its pipeline, its
in-flight pushes and its intermediate cache with it, and the recovery
wave rebuilds the lost shuffle state on the survivors before merging
finalises.  Control-plane steps (membership transitions, the three phase
commits) pass through the replicated coordinator's ``require_leader``
barrier.  The partition space stays pinned to the *initial* active set,
so any fault or membership schedule produces the same job output as the
static fault-free run, at gracefully degraded job time
(docs/elasticity.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.hw.node import Cluster
from repro.hw.specs import ClusterSpec, DeviceKind
from repro.net.transport import TrafficMeter
from repro.ocl.runtime import Device
from repro.simt.core import Event, Simulator
from repro.simt.trace import Timeline

from repro.core import membership
from repro.core.api import MapReduceApp
from repro.core.config import JobConfig
from repro.core.coordinator import ShuffleRegistry, make_splits
from repro.core.costs import DEFAULT_HOST_COSTS, HostCosts
from repro.core.faults import ClusterHealth, FaultPlan
from repro.core.intermediate import IntermediateManager
from repro.core.map_phase import MapPhase
from repro.core.membership import (CoordinatorGroup, ElasticController,
                                   ElasticPolicy)
from repro.core.metrics import JobMetrics
from repro.core.recovery import SpeculationController, run_recovery
from repro.core.reduce_phase import ReducePhase
from repro.core.sched import make_scheduler
from repro.storage.backend import StorageBackend, make_backend
from repro.storage.records import PairColumns

__all__ = ["run_glasswing", "GlasswingResult", "ClusterSession",
           "JobExecution", "open_backend"]


@dataclass
class GlasswingResult:
    """Everything a finished Glasswing job produced."""

    app_name: str
    config: JobConfig
    n_nodes: int
    job_time: float                       # the job's own virtual extent
    map_time: float                       # map-phase extent
    merge_delay: float                    # post-map merge completion time
    reduce_time: float                    # reduce-phase extent
    output: Dict[int, PairColumns]        # pid -> output pairs, as columns
    timeline: Timeline
    metrics: JobMetrics
    stats: Dict[str, Any] = field(default_factory=dict)
    #: live :class:`~repro.obs.telemetry.Telemetry` hub when the job ran
    #: with ``config.metrics_interval`` set; ``None`` otherwise
    telemetry: Optional[Any] = None

    def output_pairs(self) -> Iterator[Tuple[Any, Any]]:
        """All output pairs in partition order (TeraSort's total order)."""
        for pid in sorted(self.output):
            yield from self.output[pid]

    def sorted_output(self) -> List[Tuple[Any, Any]]:
        """Output pairs sorted by key — canonical form for comparisons.

        Keys sort by their natural order (so integer keys sort
        numerically, not as ``repr`` strings where "10" < "2"), grouped
        by type name so mixed-type key sets still have a total order;
        keys of a type without a natural order fall back to ``repr``
        within their type group.
        """
        pairs = list(self.output_pairs())
        try:
            return sorted(pairs,
                          key=lambda kv: (kv[0].__class__.__name__, kv[0]))
        except TypeError:
            return sorted(pairs, key=lambda kv: (kv[0].__class__.__name__,
                                                 repr(kv[0])))

    def to_report(self) -> Dict[str, Any]:
        """Structured JSON-serialisable job report: stats, per-stage
        breakdowns, utilization/overlap analysis, fault/recovery metrics
        and the monotonic byte/slot/wait counters (see
        :mod:`repro.obs.report` for the schema)."""
        from repro.obs.report import build_job_report
        return build_job_report(self)


def open_backend(config: JobConfig, cluster: Cluster,
                 active: Sequence[int]) -> StorageBackend:
    """The empty storage a job (or a DAG's sequence of jobs) configured by
    ``config`` runs on, ``active`` being its initially-active node ids:
    input placement follows them, because standby hardware must never
    hold an input replica the baseline run depends on."""
    return make_backend(
        config.storage, cluster, block_size=config.chunk_size,
        replication=config.input_replication,
        placement_nodes=active)


class ClusterSession:
    """The long-lived substrate one or many jobs execute on.

    Owns exactly the state that is *shared* when several jobs run
    concurrently: the simulator, the session timeline (and its optional
    telemetry hub), the cluster hardware, and the per-(node, device-kind)
    :class:`~repro.ocl.runtime.Device` objects — two jobs mapping on the
    same node's GPU must queue on one execution engine, not conjure a
    second GPU.  Everything per-job (storage namespace, shuffle registry,
    health view, scheduler, phases) lives on :class:`JobExecution`.
    """

    def __init__(self, cluster_spec: ClusterSpec,
                 metrics_interval: Optional[float] = None):
        self.sim = Simulator()
        self.timeline = Timeline()
        self.telemetry = None
        if metrics_interval is not None:
            # Lazy import: the core layer only depends on obs when
            # sampling is actually requested.  Must attach before Cluster
            # construction so every layer registers its gauges as it is
            # built.
            from repro.obs.telemetry import Telemetry
            self.telemetry = Telemetry(self.sim, interval=metrics_interval)
            self.timeline.telemetry = self.telemetry
        self.cluster = Cluster(self.sim, cluster_spec, timeline=self.timeline)
        self._devices: Dict[Tuple[int, DeviceKind], Device] = {}

    def device(self, node_id: int, kind: DeviceKind) -> Device:
        """The shared device of ``kind`` on ``node_id`` (created lazily)."""
        key = (node_id, kind)
        dev = self._devices.get(key)
        if dev is None:
            node = self.cluster[node_id]
            dev = self._devices[key] = Device(self.sim,
                                              node.spec.device(kind), node)
        return dev

    def run(self) -> None:
        """Drive the simulation to completion, sampling telemetry (the
        hub's only starter: each run respawns a sampler the last drained
        heap ended)."""
        if self.telemetry is not None:
            self.telemetry.start()
        self.sim.run()


class JobExecution:
    """One job as a schedulable entity on a (possibly shared) session —
    and the context its phases read.

    Construction performs the job's zero-sim-time setup — storage
    namespace + input install, health view, shuffle registry, splits,
    scheduler plan, device wiring, managers and map pipelines;
    :meth:`start` launches the orchestrator process.  The phases, the
    recovery wave, the speculation controller and the membership
    transitions take the job and read its attributes.  Isolation
    boundaries:

    * **storage/shuffle/recovery state** is private: each job gets its
      own backend namespace, :class:`ShuffleRegistry` and
      :class:`ClusterHealth`, so one job's node crash (executor-crash
      semantics) triggers *its* recovery wave without touching tenants
      sharing the node;
    * **hardware** is shared through the session: CPU fluid shares, disk
      and NIC queues, fabric slots and device engines all contend across
      jobs — that contention is the phenomenon a multi-job service
      exists to model;
    * **accounting** is split by a :class:`TrafficMeter` — every send the
      job issues carries it, so ``network_bytes`` and the liveness view
      deliveries obey are always the job's own — and, for concurrent
      jobs, a per-job :class:`~repro.simt.trace.TimelineFork` whose spans
      are job-tagged in the session trace.

    Whoever owns the session (:func:`run_glasswing`, ``JobServer``,
    ``DagRunner``) closes each job once its result is built
    (:meth:`close`) and stops the telemetry when its last job ends.
    """

    def __init__(self, session: ClusterSession, app: MapReduceApp,
                 inputs: Dict[str, bytes],
                 config: Optional[JobConfig] = None,
                 costs: HostCosts = DEFAULT_HOST_COSTS,
                 faults: Optional[FaultPlan] = None,
                 name: str = "glasswing-job",
                 timeline: Optional[Timeline] = None,
                 backend: Optional[StorageBackend] = None,
                 splits: Optional[List] = None,
                 active: Optional[Sequence[int]] = None,
                 elastic: Optional[ElasticPolicy] = None):
        self.session = session
        self.sim = sim = session.sim
        self.cluster = cluster = session.cluster
        self.network = cluster.network
        self.app = app
        self.name = name
        self.config = config = config or JobConfig()
        self.costs = costs
        self.faults = faults
        self.timeline = timeline = (timeline if timeline is not None
                                    else session.timeline)
        self.procs: set = set()     # its live processes (Process.group)
        n = len(cluster)
        # The initially-active node set, validated with the fault plan
        # before the first side effect on the shared session.  The
        # default — every node active — is the classic static cluster; a
        # strict subset leaves the rest standing by for NodeJoin events
        # or the elastic controller.  The partition space, the input
        # placement and the schedule are all pinned to this set so any
        # later membership churn leaves the output byte-identical.
        self.initial_active = active_ids = membership.initial_active(
            n, active if active is not None else config.active_nodes, faults)

        # Per-job fault-tolerance state: the health view gates storage
        # reads/writes and network deliveries; the registry is the
        # shuffle's global ledger that recovery replans from.
        self.health = health = ClusterHealth(n, active=active_ids)
        self.meter = TrafficMeter(timeline=timeline, health=health)
        self.backend = backend = self._open_backend(inputs, backend)
        self.registry = registry = ShuffleRegistry(
            n, config.partitions_per_node, nodes=active_ids)

        # The replicated control plane.  With one replica and no
        # CoordinatorCrash events this is pure bookkeeping: every
        # ``require_leader`` barrier returns without yielding.
        self.coordinator = CoordinatorGroup(
            sim, timeline=timeline, replicas=config.coordinator_replicas,
            failover_timeout=config.failover_timeout,
            name=f"{name}.coord")

        if splits is None:
            splits = make_splits(backend, sorted(inputs), config.chunk_size,
                                 record_size=app.record_format.record_size)
        self.splits = splits
        self.scheduler = make_scheduler(
            config.scheduler, sim=sim, timeline=timeline)
        self.scheduler.plan(splits, backend, n, active=active_ids)

        # Per-node device pools: one Device object per distinct kind (a
        # kind appearing in both phases shares its device), one
        # concurrently scheduled map pipeline per pool member.  Devices
        # come from the session cache, so concurrent jobs queue on the
        # same engines.
        self.map_kinds = config.map_device_pool
        self.reduce_kinds = config.reduce_device_pool
        all_kinds = list(dict.fromkeys(self.map_kinds + self.reduce_kinds))
        self.device_objs: List[Dict[DeviceKind, Device]] = [
            {kind: session.device(i, kind) for kind in all_kinds}
            for i in range(n)
        ]

        self.speculation = (SpeculationController(self)
                            if config.speculative_execution else None)

        # Managers and map pipelines exist only on active nodes; a
        # standby gets both the moment it joins.
        self.managers: Dict[int, IntermediateManager] = {}
        self.map_phases: List[MapPhase] = []
        for i in active_ids:
            self.add_node(i, registry.owned_by(i))
        # The orchestrator starts the phases built here; a join, which
        # cannot precede its first step, appends its pipelines' runs here.
        self.map_waits: List[Any] = []
        self.recovery_phases: List[MapPhase] = []
        self.reduce_phases: List[ReducePhase] = []
        self.membership_events: List[Dict[str, Any]] = []
        self.recovery_stats = (0, 0)     # (repushed runs, re-executed splits)
        #: (map, merge delay, reduce) extents, set when the job finished
        self.times: Optional[Tuple[float, float, float]] = None
        #: orchestrator end minus orchestrator start, set with ``times``
        self.job_time = 0.0

        #: resolved when the map/shuffle window closes; node crashes,
        #: joins and leaves landing later are out of this model's scope
        #: (their monitors lose the race and do nothing)
        self.shuffle_done = Event(sim)
        #: resolved when the orchestrator finishes; coordinator-crash
        #: monitors race it
        self.job_done = Event(sim)
        membership.arm(self)

        self._elastic = (ElasticController(self, elastic)
                         if elastic is not None else None)

        if session.telemetry is not None:
            from repro.obs.telemetry import register_membership_gauges
            self._membership_gauges = register_membership_gauges(
                session.telemetry, health, coordinator=self.coordinator,
                job=name)

    def _open_backend(self, inputs: Dict[str, bytes],
                      backend: Optional[StorageBackend]) -> StorageBackend:
        """The job's storage with ``inputs`` installed, bound to the job's
        health view and meter."""
        if backend is None:
            backend = open_backend(self.config, self.cluster,
                                   self.initial_active)
            for path, data in inputs.items():
                backend.install(path, data)
            backend.purge_caches()
        # A session-lived backend shared by a *sequence* of jobs (the
        # DAG/iterative path) arrives with every input installed, and its
        # caches are deliberately NOT purged — warm page caches and
        # cache-aside entries across rounds are the point of sharing it.
        backend.bind(self.health, self.meter)
        return backend

    def add_node(self, node_id: int, owned_pids: List[int]) -> List[MapPhase]:
        """Give ``node_id`` its intermediate manager and one map pipeline
        per pool device — at construction for the initially-active nodes,
        mid-map for a joiner.  Returns the new (not yet running) phases."""
        self.managers[node_id] = IntermediateManager(
            self.sim, self.cluster[node_id], self.app, self.config,
            self.timeline, owned_pids=owned_pids, costs=self.costs,
            procs=self.procs)
        phases = [MapPhase(self, node_id, kind) for kind in self.map_kinds]
        self.map_phases.extend(phases)
        return phases

    # -- elastic membership ------------------------------------------------
    def inject_join(self, node: Optional[int] = None):
        """Activate a standby now (``None`` picks the lowest-id standby).

        Spawns the transition as its own process so callers — the elastic
        controller, the service layer's scale hooks — need not be
        generators themselves.  Harmless no-op when nothing can join.
        """
        return self.sim.process(membership.join(self, node),
                                name=f"{self.name}.join", group=self.procs)

    def inject_leave(self, node: Optional[int] = None):
        """Drain an active node now (``None`` picks the highest-id one)."""
        return self.sim.process(membership.leave(self, node),
                                name=f"{self.name}.leave", group=self.procs)

    # -- orchestration -----------------------------------------------------
    def start(self):
        """Launch the orchestrator; returns its process (yieldable)."""
        self.proc = self.sim.process(self._job(), self.name, self.procs)
        if self._elastic is not None:
            self.sim.process(self._elastic.run(),
                             name=f"{self.name}.elastic", group=self.procs)
        return self.proc

    def _job(self):
        sim = self.sim
        timeline = self.timeline
        managers = self.managers
        t0 = sim.now
        # Growth loop: joins may append freshly spawned pipelines (and
        # their push processes) to ``map_waits`` while we are blocked on
        # an earlier batch, so keep draining until the lists stop
        # growing.  With a static membership this degenerates to exactly
        # the classic two waits: one all_of over every map run, then one
        # all_of over every push process.
        waits = self.map_waits
        waits.extend(mp.pipeline.run() for mp in self.map_phases)
        done = 0
        waited_pushes = set()
        while True:
            if done < len(waits):
                batch = waits[done:]
                done = len(waits)
                yield sim.all_of(batch)
                continue
            # The merge phase continues until all pushed Partitions
            # arrive.
            pushes = [p for mp in self.map_phases for p in mp.push_procs
                      if id(p) not in waited_pushes]
            if not pushes:
                break
            for p in pushes:
                waited_pushes.add(id(p))
            yield sim.all_of(pushes)
        if not self.shuffle_done.triggered:
            self.shuffle_done.succeed(None)
        # Committing the shuffle is a control-plane step: a coordinator
        # crash during the map window stalls here for one failover.
        yield from self.coordinator.require_leader()
        if self.health.needs_recovery:
            t_r = sim.now
            self.recovery_stats = yield from run_recovery(self)
            timeline.record("phase.recovery", "job", t_r, sim.now)
        timeline.record("phase.map", "job", t0, sim.now)
        for mp in self.map_phases:
            mp.device_ctx.release_all()
        t1 = sim.now
        survivors = self.health.alive_nodes
        yield sim.all_of([sim.process(managers[i].finalize(),
                                      name=f"finalize{i}")
                          for i in survivors])
        timeline.record("phase.merge", "job", t1, sim.now)
        # Launching reduce is the second control-plane commit point (a
        # coordinator killed between map-commit and here is caught now).
        yield from self.coordinator.require_leader()
        t2 = sim.now
        reduce_phases = self.reduce_phases
        for i in survivors:
            owned = managers[i].owned
            if not owned:
                # A node that joined mid-map owns no shuffle partitions
                # (unless recovery rehomed some to it): map/merge help
                # only, nothing to reduce.
                continue
            if len(self.reduce_kinds) == 1:
                self.scheduler.place_reduce(i, owned)
                reduce_phases.append(
                    ReducePhase(self, i, self.reduce_kinds[0]))
                continue
            # Device pool: split the node's partitions across its devices
            # proportionally to their speed (each partition's merged data
            # is node-local either way, so this is a pure compute split).
            shares = _partition_pids(
                list(owned),
                [(kind, self.device_objs[i][kind].spec.gflops)
                 for kind in self.reduce_kinds])
            for kind in self.reduce_kinds:
                pids = shares[kind]
                if not pids:
                    continue
                self.scheduler.place_reduce(i, pids, device=kind.value)
                reduce_phases.append(ReducePhase(self, i, kind, pids=pids))
        yield sim.all_of([rp.pipeline.run() for rp in reduce_phases])
        # Final commit: a coordinator crash mid-reduce resolves here, so
        # the job's end time deterministically absorbs one failover.
        yield from self.coordinator.require_leader()
        timeline.record("phase.reduce", "job", t2, sim.now)
        for rp in reduce_phases:
            rp.device_ctx.release_all()
        self.times = (t1 - t0, t2 - t1, sim.now - t2)
        self.job_time = sim.now - t0
        if not self.job_done.triggered:
            self.job_done.succeed(None)
        if self.session.telemetry is not None:
            # Membership is frozen since ``shuffle_done`` and the control
            # plane since the line above: one last sample, then no more.
            self.session.telemetry.retire(self._membership_gauges)

    # -- results -----------------------------------------------------------
    @property
    def leaked_buffer_slots(self) -> int:
        """Buffer-slot balance over every pipeline the job ran — map,
        recovery-wave and reduce."""
        return sum(phase.pipeline.slots_leaked
                   for phases in (self.map_phases, self.recovery_phases,
                                  self.reduce_phases)
                   for phase in phases)

    def result(self) -> GlasswingResult:
        """Assemble the finished job's :class:`GlasswingResult`."""
        if self.times is None:
            raise RuntimeError(
                "the job deadlocked: the event queue drained before the "
                "orchestrator finished (fault schedule wedged the "
                "pipeline?)")
        map_time, merge_delay, reduce_time = self.times
        output: Dict[int, PairColumns] = {}
        for rp in self.reduce_phases:
            output.update((pid, PairColumns.concat(parts))
                          for pid, parts in rp.output_pairs.items())

        n = len(self.cluster)
        metrics = JobMetrics(self.timeline, n)
        repushed_runs, reexecuted_splits = self.recovery_stats
        map_phases = self.map_phases
        scheduler = self.scheduler
        stats = {
            "batch_size": (map_phases[0].batch_records
                           if map_phases else None),
            "batch_autotuned": self.config.batch_size is None,
            "records_mapped": sum(mp.records_mapped for mp in map_phases),
            "pairs_emitted": sum(mp.pairs_emitted for mp in map_phases),
            "keys_reduced": sum(rp.keys_reduced
                                for rp in self.reduce_phases),
            # The per-tenant meter, not the fabric total: on a shared
            # session that would charge this job with its neighbours'
            # traffic.
            "network_bytes": self.meter.bytes_moved,
            "splits": len(self.splits),
            "dead_nodes": self.health.dead_nodes,
            "initial_active_nodes": len(self.initial_active),
            "final_active_nodes": len(self.health.alive_nodes),
            "joined_nodes": sorted(self.health.joined_at),
            "departed_nodes": self.health.departed_nodes,
            "membership_events": list(self.membership_events),
            "coordinator_replicas": self.config.coordinator_replicas,
            "coordinator_failovers": self.coordinator.failovers,
            "coordinator_epoch": self.coordinator.epoch,
            "elastic_scale_outs": (self._elastic.scale_outs
                                   if self._elastic else 0),
            "elastic_scale_ins": (self._elastic.scale_ins
                                  if self._elastic else 0),
            "repushed_runs": repushed_runs,
            "reexecuted_splits": reexecuted_splits,
            # Span counts, read only if there can be any (no index build).
            "task_failures": metrics.task_failures if self.faults else 0,
            "speculative_launches": (metrics.speculative_launches
                                     if self.speculation else 0),
            "speculative_wins": (metrics.speculative_wins
                                 if self.speculation else 0),
            "scheduler": scheduler.name,
            "sched_placements": scheduler.placements,
            "sched_locality_hits": scheduler.locality_hits,
            "sched_locality_misses": scheduler.locality_misses,
            "sched_locality_hit_rate": scheduler.locality_hit_rate,
            "sched_speculative_placements":
                scheduler.speculative_placements,
            # Buffer-slot balance: every acquired pipeline slot must be
            # returned, even by pipelines a node crash killed mid-flight
            # (phantom occupancy would poison the utilization reports).
            "leaked_buffer_slots": self.leaked_buffer_slots,
            # The job's processes nothing will resume: stuck past its end.
            "leaked_processes": sum(p.is_blocked for p in self.procs),
        }
        # Pending fault-plan events (a crash timer that lost its race, a
        # speculation watchdog) can outlive the job in the event heap, so
        # the job's extent comes from the orchestrator, not the drained
        # clock.
        return GlasswingResult(
            app_name=self.app.name, config=self.config, n_nodes=n,
            job_time=self.job_time,
            map_time=map_time, merge_delay=merge_delay,
            reduce_time=reduce_time,
            output=output, timeline=self.timeline, metrics=metrics,
            stats=stats)

    def close(self) -> None:
        """Let go of the finished job's private graph once :meth:`result`
        is built, so refcounting frees the shuffle data when the caller
        drops the job: the phases (whose pipelines hold stage bodies bound
        to them), the controllers pointing back at the job, the managers,
        scheduler and registry.  Idempotent; the shared session is not
        touched, and no timer left in the heap holds any of it."""
        for phase in (*self.map_phases, *self.recovery_phases,
                      *self.reduce_phases):
            phase.pipeline = None
        self.map_phases, self.recovery_phases, self.reduce_phases = [], [], []
        self.map_waits = []
        self.managers = {}
        self.speculation = self._elastic = None
        self.scheduler = self.registry = None


def run_glasswing(app: MapReduceApp, inputs: Dict[str, bytes],
                  cluster_spec: ClusterSpec,
                  config: Optional[JobConfig] = None,
                  costs: HostCosts = DEFAULT_HOST_COSTS,
                  faults: Optional[FaultPlan] = None,
                  elastic: Optional[ElasticPolicy] = None
                  ) -> GlasswingResult:
    """Run one Glasswing job on a fresh simulated cluster.

    ``inputs`` maps file paths to their content; installation is free of
    simulated time (the paper excludes input generation from timings) and
    the page caches are purged before the job starts, as in §IV.
    ``faults`` optionally injects task failures, stragglers and node
    crashes, which the job survives through re-execution, speculation and
    the shuffle-recovery wave (§III-E).

    This is the single-tenant convenience wrapper: one
    :class:`ClusterSession` owning one :class:`JobExecution`.  A
    multi-job service (:mod:`repro.service`) drives the same two classes
    with many concurrent jobs instead.
    """
    config = config or JobConfig()
    session = ClusterSession(cluster_spec,
                             metrics_interval=config.metrics_interval)
    execution = JobExecution(session, app, inputs, config=config,
                             costs=costs, faults=faults, elastic=elastic)
    proc = execution.start()

    def on_done(done: Event) -> None:
        # The final snapshot belongs to the moment the orchestrator ends,
        # not to when the heap (lost crash timers and all) drains.  A
        # subscriber counts as handling a failure, which must still
        # surface from ``session.run()``.
        if not done.ok:
            raise done.value
        session.telemetry.stop()

    if session.telemetry is not None:
        proc.subscribe(on_done)
    session.run()
    result = execution.result()
    execution.close()
    result.telemetry = session.telemetry
    return result


def _partition_pids(pids: List[int], devices: List[Tuple[DeviceKind, float]]
                    ) -> Dict[DeviceKind, List[int]]:
    """Split a node's partitions across its device pool proportionally to
    device speed: each pid goes to the device whose *per-speed* load
    after taking it is smallest (ties broken by pool order), so a 20x
    faster device ends up with ~20x the partitions."""
    shares: Dict[DeviceKind, List[int]] = {kind: [] for kind, _ in devices}
    for pid in sorted(pids):
        kind = min(
            ((kind, speed, order)
             for order, (kind, speed) in enumerate(devices)),
            key=lambda t: ((len(shares[t[0]]) + 1) / max(t[1], 1e-9), t[2])
        )[0]
        shares[kind].append(pid)
    return shares
