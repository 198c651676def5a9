"""Fault injection and cluster health: the fault-tolerance subsystem.

The paper (§III-E): "Glasswing currently does not handle task failure.
The standard approach of managing MapReduce task failure is re-execution:
if a task fails, its partial output is discarded and its input is
rescheduled for processing."  This module grows that sketch into a full
fault model covering the failures that dominate real clusters:

* **map-task crashes** — the map pipeline discards partial kernel work,
  re-reads the split from (replicated) storage and re-executes, back to
  back, up to ``JobConfig.max_attempts``;
* **reduce-task crashes** — the reduce pipeline discards the partial
  reduction, re-fetches the partition's lost input from durable map
  output on local disk and re-executes;
* **whole-node crashes** — the node's pipelines are killed mid-flight,
  its intermediate state is lost (including shuffle data in flight from
  it), and the coordinator runs a recovery wave on the survivors (see
  :mod:`repro.core.recovery`);
* **stragglers** — a task's kernel is slowed by a factor; the optional
  straggler detector launches a speculative duplicate on another node
  with first-finisher-wins semantics;
* **membership churn** — :class:`NodeJoin` activates a standby node
  mid-job (it registers with the scheduler and starts stealing queued
  map work), :class:`NodeLeave` drains an active node (its unfinished
  work re-enters through the recovery path, but — unlike a crash — its
  durable spill and DFS replicas stay readable, HDFS-decommissioning
  style);
* **coordinator crashes** — :class:`CoordinatorCrash` kills the current
  control-plane leader; a standby replica is elected deterministically
  (see :mod:`repro.core.membership`) and resumes from the shared
  ``ShuffleRegistry``/:class:`ClusterHealth` state.

A :class:`FaultPlan` declares the schedule, either deterministically or
from a seed (:meth:`FaultPlan.seeded`); a run only reads it (what happened
is the job's spans), so one plan can drive many runs.  The headline
guarantee, locked in by ``tests/core/test_fault_matrix.py``: any fault
schedule produces output identical to the fault-free run, at a
gracefully degraded job time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (Dict, List, Mapping, Optional, Sequence, Set, Tuple,
                    Union)

from repro.core.membership import initial_active

__all__ = [
    "FaultPlan",
    "NodeCrash",
    "NodeJoin",
    "NodeLeave",
    "CoordinatorCrash",
    "ClusterHealth",
    "TaskFailedError",
]

#: ``progress_at_failure`` accepts one global scalar, one sequence indexed
#: by attempt (shared by all tasks), or a mapping from task key to either.
ProgressSpec = Union[float, Sequence[float], Mapping[int, Union[float, Sequence[float]]]]


class TaskFailedError(RuntimeError):
    """A task exhausted ``JobConfig.max_attempts`` executions."""


def end_crashed_attempt(phase, kind: str, task: str, start: float,
                        attempt: int, **meta) -> int:
    """Both phases' retry epilogue: record crashed ``attempt``'s
    ``<kind>.task_failure`` span (``start`` to now) and give up after
    ``max_attempts``; returns the next attempt number, which is launched
    back to back."""
    phase.timeline.record(f"{kind}.task_failure", phase.node.name, start,
                          phase.sim.now, **meta, attempt=attempt)
    attempt += 1
    if attempt >= phase.config.max_attempts:
        raise TaskFailedError(
            f"{kind} task for {task} failed {attempt} attempts "
            f"(max_attempts={phase.config.max_attempts})")
    return attempt


@dataclass(frozen=True)
class NodeCrash:
    """One whole-node loss: ``node`` dies at virtual time ``at``.

    Crashes are modeled during the map/shuffle phase — the window in
    which a node holds unique, not-yet-durable intermediate state.  A
    crash time landing after the shuffle completed is a no-op (the job
    already holds everything the node produced).
    """

    node: int
    at: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("crash node must be a valid node id")
        if self.at < 0:
            raise ValueError("crash time must be non-negative")


@dataclass(frozen=True)
class NodeJoin:
    """One scale-out event: ``node`` becomes active at virtual time ``at``.

    ``node=None`` resolves at fire time to the lowest-id standby
    (auto-scaling-group semantics); an explicit node must currently be a
    standby or the event is a recorded no-op.  Joins landing after the
    shuffle completed are no-ops — there is no map work left to steal.
    """

    node: Optional[int]
    at: float

    def __post_init__(self) -> None:
        if self.node is not None and self.node < 0:
            raise ValueError("join node must be a valid node id or None")
        if self.at < 0:
            raise ValueError("join time must be non-negative")


@dataclass(frozen=True)
class NodeLeave:
    """One scale-in event: ``node`` drains out of the job at time ``at``.

    ``node=None`` resolves at fire time to the highest-id live node.
    The last live node never leaves, and leaves landing after the
    shuffle completed are no-ops (the node holds nothing volatile any
    more).  Draining differs from crashing: the departed node's durable
    spill and DFS replicas remain readable, so recovery usually re-pushes
    instead of re-executing.
    """

    node: Optional[int]
    at: float

    def __post_init__(self) -> None:
        if self.node is not None and self.node < 0:
            raise ValueError("leave node must be a valid node id or None")
        if self.at < 0:
            raise ValueError("leave time must be non-negative")


@dataclass(frozen=True)
class CoordinatorCrash:
    """Kill the control-plane leader at virtual time ``at``.

    The next control-plane barrier elects a standby replica (lowest
    surviving id) after one ``JobConfig.failover_timeout`` delay; with a
    single replica the job dies — that is the pre-HA behavior, now
    opt-out via ``JobConfig.coordinator_replicas``.
    """

    at: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("coordinator crash time must be non-negative")


def _validate_progress(progress: ProgressSpec) -> None:
    def check_scalar(p) -> None:
        if not (0.0 <= float(p) <= 1.0):
            raise ValueError("progress_at_failure must be within [0, 1]")

    if isinstance(progress, Mapping):
        for value in progress.values():
            if isinstance(value, Sequence):
                for p in value:
                    check_scalar(p)
            else:
                check_scalar(value)
    elif isinstance(progress, Sequence):
        for p in progress:
            check_scalar(p)
    else:
        check_scalar(progress)


def _progress_lookup(progress: ProgressSpec, key: int, attempt: int) -> float:
    """Resolve the kernel fraction executed before crash ``attempt`` of
    task ``key`` (the per-failure generalisation of the old scalar)."""
    if isinstance(progress, Mapping):
        progress = progress.get(key, 0.5)
    if isinstance(progress, Sequence):
        if not progress:
            return 0.5
        return float(progress[min(attempt, len(progress) - 1)])
    return float(progress)


@dataclass
class FaultPlan:
    """A pluggable fault schedule for one job.

    ``map_failures`` / ``reduce_failures`` map a task key (split index /
    partition id) to the number of times its first attempts crash; the
    attempt numbered ``count`` succeeds.  ``stragglers`` maps split
    indices to kernel slowdown factors (>= 1).  ``node_crashes`` lists
    whole-node losses.

    ``progress_at_failure`` may be a global scalar, a per-attempt
    sequence, or a per-task mapping to either — so each individual
    failure can die at a different point of its kernel.
    """

    map_failures: Dict[int, int] = field(default_factory=dict)
    reduce_failures: Dict[int, int] = field(default_factory=dict)
    node_crashes: Tuple[NodeCrash, ...] = ()
    stragglers: Dict[int, float] = field(default_factory=dict)
    progress_at_failure: ProgressSpec = 0.5
    node_joins: Tuple[NodeJoin, ...] = ()
    node_leaves: Tuple[NodeLeave, ...] = ()
    coordinator_crashes: Tuple[CoordinatorCrash, ...] = ()

    def __post_init__(self) -> None:
        _validate_progress(self.progress_at_failure)
        for name, counts in (("map", self.map_failures),
                             ("reduce", self.reduce_failures)):
            if any(c < 0 for c in counts.values()):
                raise ValueError(f"{name} failure counts must be non-negative")
        if any(s < 1.0 for s in self.stragglers.values()):
            raise ValueError("straggler slowdown factors must be >= 1")
        self.node_crashes = tuple(self.node_crashes)
        seen = set()
        for crash in self.node_crashes:
            if crash.node in seen:
                raise ValueError(f"node {crash.node} crashes more than once")
            seen.add(crash.node)
        self.node_joins = tuple(self.node_joins)
        self.node_leaves = tuple(self.node_leaves)
        self.coordinator_crashes = tuple(self.coordinator_crashes)
        for label, events in (("joins", self.node_joins),
                              ("leaves", self.node_leaves)):
            explicit = [e.node for e in events if e.node is not None]
            if len(explicit) != len(set(explicit)):
                raise ValueError(f"duplicate explicit node in {label}")

    def check_nodes(self, n_nodes: int) -> None:
        """Raise ``ValueError`` when an event names a node an
        ``n_nodes``-node cluster does not have (a plan is written before
        the cluster it will run on is known)."""
        for kind, events in (("crash", self.node_crashes),
                             ("join", self.node_joins),
                             ("leave", self.node_leaves)):
            for event in events:
                if event.node is not None and event.node >= n_nodes:
                    raise ValueError(
                        f"node {kind} targets node {event.node} but the "
                        f"cluster has {n_nodes} nodes")

    # -- schedule queries --------------------------------------------------
    def should_fail_map(self, split_index: int, attempt: int) -> bool:
        """True when this attempt of this map task is destined to crash."""
        return attempt < self.map_failures.get(split_index, 0)

    def should_fail_reduce(self, pid: int, attempt: int) -> bool:
        """True when this attempt of this partition's reduce task crashes."""
        return attempt < self.reduce_failures.get(pid, 0)

    def progress_for(self, key: int, attempt: int) -> float:
        """Kernel fraction executed before crash ``attempt`` of task ``key``."""
        return _progress_lookup(self.progress_at_failure, key, attempt)

    def slowdown_for(self, split_index: int) -> float:
        """Kernel slowdown factor of a straggling map task (1.0 = healthy)."""
        return self.stragglers.get(split_index, 1.0)

    # -- construction ------------------------------------------------------
    @classmethod
    def seeded(cls, seed: int, n_splits: int, n_nodes: int = 0,
               n_partitions: int = 0,
               map_rate: float = 0.0, reduce_rate: float = 0.0,
               straggler_rate: float = 0.0, straggler_slowdown: float = 4.0,
               node_crash_count: int = 0,
               crash_window: Tuple[float, float] = (0.0, 1.0),
               max_failures_per_task: int = 2,
               node_join_count: int = 0, node_leave_count: int = 0,
               coordinator_crash_count: int = 0,
               membership_window: Tuple[float, float] = (0.0, 1.0)) -> "FaultPlan":
        """Seeded-random plan: every draw comes from ``random.Random(seed)``
        so the same seed always yields the same schedule (and therefore,
        with the deterministic simulator, the same timeline).

        Rates are per-task probabilities; a selected task fails
        ``1..max_failures_per_task`` times.  ``node_crash_count`` nodes
        (never node 0, so a coordinator-style survivor always remains)
        crash at times drawn uniformly from ``crash_window``.

        ``node_join_count`` / ``node_leave_count`` /
        ``coordinator_crash_count`` schedule that many auto-resolved
        membership events at times drawn uniformly from
        ``membership_window``; the draws are appended after the classic
        ones, so a given seed's crash/straggler schedule is unchanged by
        also requesting membership churn.
        """
        rng = random.Random(seed)
        map_failures: Dict[int, int] = {}
        reduce_failures: Dict[int, int] = {}
        stragglers: Dict[int, float] = {}
        progress: Dict[int, List[float]] = {}
        for split in range(n_splits):
            if rng.random() < map_rate:
                count = rng.randint(1, max_failures_per_task)
                map_failures[split] = count
                progress[split] = [round(rng.random(), 3) for _ in range(count)]
            elif rng.random() < straggler_rate:
                stragglers[split] = 1.0 + rng.random() * (straggler_slowdown - 1.0)
        for pid in range(n_partitions):
            if rng.random() < reduce_rate:
                reduce_failures[pid] = rng.randint(1, max_failures_per_task)
        crashes: List[NodeCrash] = []
        if node_crash_count:
            if n_nodes < 2:
                raise ValueError("node crashes need at least two nodes")
            victims = rng.sample(range(1, n_nodes),
                                 min(node_crash_count, n_nodes - 1))
            lo, hi = crash_window
            crashes = [NodeCrash(v, round(rng.uniform(lo, hi), 6))
                       for v in sorted(victims)]
        mlo, mhi = membership_window
        joins = tuple(NodeJoin(None, round(rng.uniform(mlo, mhi), 6))
                      for _ in range(node_join_count))
        leaves = tuple(NodeLeave(None, round(rng.uniform(mlo, mhi), 6))
                       for _ in range(node_leave_count))
        coord = tuple(CoordinatorCrash(round(rng.uniform(mlo, mhi), 6))
                      for _ in range(coordinator_crash_count))
        return cls(map_failures=map_failures, reduce_failures=reduce_failures,
                   node_crashes=tuple(crashes), stragglers=stragglers,
                   progress_at_failure=progress if progress else 0.5,
                   node_joins=joins, node_leaves=leaves,
                   coordinator_crashes=coord)


class ClusterHealth:
    """Liveness and membership of the cluster's nodes during one job.

    Written by the engine's crash/membership monitors; read by the
    phases (skip deliveries to dead peers), the DFS (serve reads from
    live replicas) and the recovery coordinator.

    A node is in exactly one of four states:

    * **active** — alive and participating (``alive()`` true);
    * **standby** (``inactive``) — hardware exists but is not part of
      this job yet; a :class:`NodeJoin` activates it;
    * **departed** — drained out mid-job.  Not ``alive()`` (it takes no
      new work and receives no deliveries) but ``storage_alive()`` —
      its durable spill and DFS replicas remain readable, so recovery
      can re-push instead of re-executing;
    * **dead** — crashed.  Neither alive nor a storage source.

    ``active=None`` (the default) activates every node, reproducing the
    pre-elastic behavior bit-identically.
    """

    def __init__(self, n_nodes: int,
                 active: Optional[Sequence[int]] = None):
        self.n_nodes = n_nodes
        self.dead_at: Dict[int, float] = {}
        self.departed_at: Dict[int, float] = {}
        self.joined_at: Dict[int, float] = {}
        self.inactive: Set[int] = (set(range(n_nodes))
                                   - set(initial_active(n_nodes, active)))

    def alive(self, node: int) -> bool:
        return (node not in self.dead_at and node not in self.departed_at
                and node not in self.inactive)

    def storage_alive(self, node: int) -> bool:
        """Can ``node`` still *serve* durable bytes?  Departed (drained)
        nodes can; dead and standby nodes cannot."""
        return node not in self.dead_at and node not in self.inactive

    def mark_dead(self, node: int, at: float) -> None:
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"unknown node {node}")
        self.dead_at.setdefault(node, at)

    def mark_departed(self, node: int, at: float) -> None:
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"unknown node {node}")
        if node in self.inactive:
            raise ValueError(f"standby node {node} cannot depart")
        self.departed_at.setdefault(node, at)

    def activate(self, node: int, at: float) -> None:
        """A standby node joins the active set."""
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"unknown node {node}")
        if node not in self.inactive:
            raise ValueError(f"node {node} is not a standby")
        self.inactive.discard(node)
        self.joined_at.setdefault(node, at)

    @property
    def needs_recovery(self) -> bool:
        """True when any node crashed *or* drained out — both lose
        volatile intermediate state that recovery must restore."""
        return bool(self.dead_at or self.departed_at)

    @property
    def alive_nodes(self) -> List[int]:
        return [n for n in range(self.n_nodes) if self.alive(n)]

    @property
    def dead_nodes(self) -> List[int]:
        return sorted(self.dead_at)

    @property
    def departed_nodes(self) -> List[int]:
        return sorted(self.departed_at)

    @property
    def gone_nodes(self) -> List[int]:
        """Crashed and departed nodes — everything recovery must re-home."""
        return sorted(set(self.dead_at) | set(self.departed_at))
