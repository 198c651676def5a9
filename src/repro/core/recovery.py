"""Node-crash recovery and speculative execution (§III-E).

Two cooperating pieces live here:

* :func:`run_recovery` — the coordinator's recovery wave, run between the
  map/shuffle phase and the merge finalisation once a node has died.  It
  re-assigns the dead node's partitions to survivors, then executes the
  :meth:`~repro.core.coordinator.ShuffleRegistry.recovery_plan`: sorted
  runs that are durable on a surviving node's local spill are re-read and
  re-pushed (cheap), splits whose durable output died with their mapper
  are re-executed on the survivors (full map work, but only the buckets
  the ledger shows as lost are re-delivered).

* :class:`SpeculationController` — the straggler detector.  It tracks
  completed map-kernel durations; once a launch overruns
  ``speculation_factor ×`` the observed mean, the map phase races a
  speculative copy of the task on the least-loaded surviving node.  First
  finisher wins and the loser is interrupted.  The real data
  transformation runs exactly once on the primary, so speculation changes
  timing only — never output.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.simt.core import Event

from repro.core.coordinator import Buckets, Split
from repro.core.splitread import read_split_records

__all__ = ["SpeculationController", "run_recovery"]


class SpeculationController:
    """Straggler detection + speculative copy execution (one per job).

    The controller owns the cross-node view the map pipelines lack: mean
    kernel duration (the straggler baseline) and how many speculative
    copies each node is currently running (for least-loaded helper
    choice).  Launches and wins are ``map.speculative`` spans, which
    :class:`~repro.core.metrics.JobMetrics` counts.
    """

    #: completed launches needed before the mean is trusted
    MIN_SAMPLES = 3

    def __init__(self, job):
        self.job = job          # the JobExecution this controller serves
        self.sim = job.sim
        self.config = job.config
        self.durations: List[float] = []
        self.active: Dict[int, int] = {n: 0 for n in range(len(job.cluster))}
        self._progress_waiters: List[Event] = []

    # -- straggler detection ----------------------------------------------
    def observe(self, duration: float) -> None:
        """Feed one completed kernel-launch duration into the baseline."""
        self.durations.append(duration)
        waiters, self._progress_waiters = self._progress_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed(None)

    def progress_event(self) -> Event:
        """Event fired at the next :meth:`observe` — lets a watchdog with
        no baseline yet sleep until the cohort makes progress instead of
        polling at an arbitrary interval."""
        ev = Event(self.sim)
        self._progress_waiters.append(ev)
        return ev

    def threshold(self) -> float | None:
        """Seconds after which a launch counts as straggling, or ``None``
        while too few launches completed to trust the mean."""
        if len(self.durations) < self.MIN_SAMPLES:
            return None
        mean = sum(self.durations) / len(self.durations)
        return self.config.speculation_factor * mean

    # -- speculative copies ------------------------------------------------
    def pick_helper(self, exclude: int,
                    split_index: Optional[int] = None) -> int | None:
        """Node to run a speculative copy on — delegated to the job's
        scheduling policy (the base policy picks the least-loaded
        surviving node other than ``exclude``)."""
        return self.job.scheduler.pick_helper(
            exclude, self.job.health.alive_nodes, self.active,
            split_index=split_index)

    def launch_copy(self, split: Split, helper: int):
        """Start the speculative duplicate on ``helper``; returns its
        process (raced against the primary by the map phase)."""
        return self.sim.process(
            self._copy(split, helper),
            name=f"spec.s{split.index}.n{helper}")

    def _copy(self, split: Split, helper: int) -> Generator:
        """Charge the duplicate's costs: re-read the split on the helper
        and run the map kernel at full speed (the straggler slowdown is a
        property of the sick node, not of the task)."""
        job = self.job
        self.active[helper] += 1
        try:
            records, nbytes = yield from read_split_records(
                job.backend, helper, split, job.app.record_format)
            device = job.device_objs[helper][job.map_kinds[0]]
            cost = job.app.map_cost(device.spec, len(records), nbytes)
            yield from device.execute_cost(
                cost, threads=job.app.preferred_threads(device.spec))
        finally:
            self.active[helper] -= 1


def run_recovery(job) -> Generator:
    """The post-crash recovery wave of ``job`` (process body; yields
    until done).

    Returns ``(n_repushed_runs, n_reexecuted_splits)`` for the stats
    block.  On return every ``(split, partition)`` run the shuffle lost is
    re-delivered to a surviving manager, and partition ownership points
    only at survivors — the merge and reduce phases then run exactly as in
    the fault-free case.
    """
    from repro.core.map_phase import MapPhase   # cycle: map_phase ↔ recovery

    sim, health, registry = job.sim, job.health, job.registry
    scheduler = job.scheduler
    survivors = health.alive_nodes
    if not survivors:
        raise RuntimeError("every node died; the job cannot complete")
    # 1. Re-home the gone nodes' partitions (crashed *and* departed — both
    #    stop reducing): the scheduling policy picks each partition's new
    #    owner (the base policy keeps the original deterministic spread;
    #    load-aware policies balance ownership).
    for gone in health.gone_nodes:
        for pid in registry.owned_by(gone):
            new_owner = scheduler.rehome(pid, survivors, registry)
            registry.reassign(pid, new_owner)
            job.managers[new_owner].adopt_partition(pid)
    # 2. Plan: cheap durable re-pushes vs full split re-execution.  A
    #    departed (drained) node still serves its durable spill — that is
    #    what makes a drain cheaper than a crash.
    repushes, reexec = registry.recovery_plan(
        job.splits, health.alive, durable_alive=health.storage_alive)
    n_repushed = sum(len(pids) for entries in repushes.values()
                     for _, pids in entries)
    for split in reexec:
        job.timeline.record("recovery.reexec", "job", sim.now, sim.now,
                            split=split.index)
    # 3. Durable re-pushes: spill re-read on the source, one batched send
    #    per (source, owner) pair, runs join the owner's cache.
    procs = [sim.process(_repush(job, source, owner, entries),
                         name=f"recover.n{source}->n{owner}")
             for (source, owner), entries in sorted(repushes.items())]
    # 4. Re-execution: the lost splits go back through the scheduler
    #    (restricted to survivors) and a recovery map phase pulls them on
    #    every node the policy nominates.  The ledger keeps already
    #    delivered buckets from being pushed twice.  The phases stay on
    #    the job, whose buffer-slot balance counts their pipelines.
    phases = []
    if reexec:
        scheduler.plan_recovery(reexec, job.backend, survivors)
        phases = [MapPhase(job, node_id, job.map_kinds[0], recovery=True)
                  for node_id in scheduler.recovery_nodes()]
        job.recovery_phases.extend(phases)
    waits = procs + [ph.pipeline.run() for ph in phases]
    if waits:
        yield sim.all_of(waits)
    pushes = [p for ph in phases for p in ph.push_procs]
    if pushes:
        yield sim.all_of(pushes)
    for ph in phases:
        ph.device_ctx.release_all()
    return n_repushed, len(reexec)


def _repush(job, source: int, owner: int, entries: Buckets) -> Generator:
    """Re-deliver durable buckets from ``source``'s spill to ``owner``."""
    sim, node = job.sim, job.cluster[source]
    compressed_size = job.config.compression.compressed_size
    stored = sum(compressed_size(block.raw[pid])
                 for block, pids in entries for pid in pids)
    start = sim.now
    yield from node.disk.read(stored, stream="spill.recover")
    yield node.host_work(1, job.costs.push_overhead)
    delivered = yield from job.network.send(source, owner, stored,
                                            meter=job.meter)
    job.timeline.record("recovery.repush", node.name, start, sim.now,
                        owner=owner, runs=sum(len(p) for _, p in entries),
                        bytes=stored, delivered=bool(delivered))
    if delivered is False:    # owner died during recovery — not modelled
        return
    for block, pids in entries:
        job.registry.deliver(job.managers, owner, block, pids)
