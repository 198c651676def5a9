"""Elastic cluster membership and coordinator replication.

The paper's cluster is fixed-size with a single immortal coordinator;
production clusters grow, shrink and lose their control plane.  This
module adds the missing pieces:

* :class:`CoordinatorGroup` — a replicated control plane with
  deterministic leader election.  The data plane (pipelines, pushes,
  merges) never talks to the coordinator mid-flight; the *control*
  plane — membership transitions and phase commits — passes through
  :meth:`CoordinatorGroup.require_leader`, a barrier that charges one
  failover delay when the previous leader died and then elects the
  lowest-id surviving replica.  All job state a new leader needs (the
  :class:`~repro.core.coordinator.ShuffleRegistry` delivery ledger and
  the :class:`~repro.core.faults.ClusterHealth` view) is shared, so a
  failover changes job *time* but never job *output*.

* :func:`pick_join` / :func:`pick_leave` — the one scale rule: the
  lowest-id standby joins, the highest-id active node leaves, and the
  last node never leaves.  It has two triggers, and both reach it: a
  *schedule* (a fault plan's ``NodeJoin``/``NodeLeave``, the service
  layer's ``JobServer.scale_out``/``scale_in``, which picks for its
  shared ``active``/``standby`` lists) and a *watermark*
  (:class:`ElasticController`).

* :class:`ElasticPolicy` / :class:`ElasticController` — the watermark
  trigger: auto-scaling-group style scale-out/in driven by the mean CPU
  busy fraction over the active nodes, with fixed high/low watermarks
  and a cooldown so one load spike does not flap the cluster.  The
  policy stays a pure value (the job's bounds, like a fault plan is a
  pure schedule); the controller holds one run's state.  Both act
  through :func:`join`/:func:`leave` with ``node=None``.

* the transitions themselves — :func:`crash`, :func:`join` and
  :func:`leave` change one job's membership, and :func:`arm` turns the
  job's :class:`~repro.core.faults.FaultPlan` schedule into monitor
  processes that fire them; :func:`initial_active` validates what a
  submission says about membership before anything is built.

Membership semantics (see ``docs/elasticity.md``): a **joining** node
registers with the job's scheduler and starts stealing queued map work
with zero engine changes; a **leaving** node *drains* — its unfinished
work re-enters the scheduler through the PR1 recovery path (durable
re-push or split re-execution) and, unlike a *crashed* node, its durable
spill and DFS replicas remain readable (HDFS-decommissioning
semantics), so draining is usually a cheap re-push rather than a full
re-execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from inspect import isgenerator
from typing import Dict, List, Optional, Sequence, Union

from repro.simt.core import Event, Simulator
from repro.simt.trace import Timeline

__all__ = ["CoordinatorGroup", "ElasticPolicy", "ElasticController",
           "initial_active", "pick_join", "pick_leave", "arm", "crash",
           "join", "leave"]


def initial_active(n_nodes: int,
                   active: Union[int, Sequence[int], None] = None,
                   faults=None) -> List[int]:
    """Check a submission's membership against the cluster size and
    return the sorted ids of its initially-active nodes.

    ``active`` is a count (the first ``active`` nodes), explicit ids, or
    ``None`` for every node.  Raises ``ValueError`` when the set is empty
    (a cluster of no nodes included) or leaves the cluster, or when the
    fault plan names a node the cluster does not have — before anything
    is built on the simulator.
    """
    if faults is not None:
        faults.check_nodes(n_nodes)
    if active is None:
        active = n_nodes
    if isinstance(active, int):
        if not (1 <= active <= n_nodes):
            raise ValueError(
                f"active node count {active} outside 1..{n_nodes}")
        return list(range(active))
    ids = sorted(set(active))
    if not ids or any(not (0 <= n < n_nodes) for n in ids):
        raise ValueError(
            f"active ids {ids} outside the {n_nodes}-node cluster")
    return ids


class CoordinatorGroup:
    """A replicated coordinator with deterministic leader election.

    Replicas are logical control-plane instances numbered ``0..r-1``;
    replica 0 leads initially.  :meth:`crash_leader` (driven by the
    fault plan's ``coordinator_crashes``) kills the current leader;
    the next :meth:`require_leader` barrier then runs one election —
    every concurrent waiter joins the *same* election, so the
    ``failover_timeout`` is charged exactly once — and installs the
    lowest-id surviving replica.  Election is pure bookkeeping over
    shared state, hence deterministic and output-invariant.
    """

    def __init__(self, sim: Simulator, timeline: Optional[Timeline] = None,
                 replicas: int = 1, failover_timeout: float = 0.0,
                 name: str = "coord"):
        if replicas < 1:
            raise ValueError("coordinator_replicas must be >= 1")
        if failover_timeout < 0:
            raise ValueError("failover_timeout must be >= 0")
        self.sim = sim
        self.timeline = timeline
        self.name = name
        self.replicas = list(range(replicas))
        self.dead: Dict[int, float] = {}
        self.leader: Optional[int] = 0
        self.epoch = 0                  # bumps on every leadership change
        self.failovers = 0
        self.failover_timeout = failover_timeout
        self._election: Optional[Event] = None
        self._barrier_seq = 0

    # -- state queries -----------------------------------------------------
    def alive_replicas(self) -> List[int]:
        return [r for r in self.replicas if r not in self.dead]

    # -- failure injection -------------------------------------------------
    def crash_leader(self, at: Optional[float] = None) -> Optional[int]:
        """Kill the current leader (or, mid-election, the replica that
        would win it).  Returns the victim id, or ``None`` when every
        replica is already dead."""
        at = self.sim.now if at is None else at
        victim = self.leader
        if victim is None:
            alive = self.alive_replicas()
            victim = alive[0] if alive else None
        if victim is None:
            return None
        self.dead[victim] = at
        self.leader = None
        if self.timeline is not None:
            self.timeline.record("coord.crash", f"{self.name}{victim}",
                                 at, at, replica=victim)
        return victim

    # -- the control-plane barrier -----------------------------------------
    def require_leader(self):
        """Barrier generator: returns the leader id, electing one first
        when the previous leader died.  Free (no yield, no simulated
        time) while the leader is healthy — the common case."""
        if self.leader is not None:
            return self.leader
        if self._election is None:
            self._election = Event(self.sim)
            self.sim.process(self._elect(), name=f"{self.name}.election")
        election = self._election
        t_req = self.sim.now
        yield election
        if self.leader is None:
            raise RuntimeError(
                "control plane lost: every coordinator replica is dead "
                f"(crashed: {sorted(self.dead)})")
        if self.timeline is not None and self.sim.now > t_req:
            # One barrier span + membership wait edge per *waiter*: the
            # election is charged once, but every caller blocked on it
            # lost this much control-plane time.
            self._barrier_seq += 1
            self.timeline.record("coord.barrier", self.name,
                                 self.sim.now, self.sim.now,
                                 t_req=t_req, leader=self.leader,
                                 epoch=self.epoch, op=self._barrier_seq)
            self.timeline.record_wait("membership", f"{self.name}.election",
                                      "coord.barrier", self.name,
                                      t_req, self.sim.now,
                                      op=self._barrier_seq)
        return self.leader

    def _elect(self):
        start = self.sim.now
        if self.failover_timeout > 0:
            # Failure detection + election rounds, modeled as one fixed
            # delay (deterministic: the winner is a pure function of
            # which replicas are alive, not of message timing).
            yield self.sim.timeout(self.failover_timeout)
        election, self._election = self._election, None
        alive = self.alive_replicas()
        if alive:
            self.leader = alive[0]      # lowest alive id wins, always
            self.epoch += 1
            self.failovers += 1
            if self.timeline is not None:
                self.timeline.record(
                    "coord.failover", f"{self.name}{self.leader}",
                    start, self.sim.now, leader=self.leader,
                    epoch=self.epoch)
        election.succeed(self.leader)


@dataclass(frozen=True)
class ElasticPolicy:
    """Auto-scaling-group bounds for one job's elastic node pool: the
    :class:`ElasticController` keeps between ``min_nodes`` and
    ``max_nodes`` (``None``: every node) active."""

    min_nodes: int = 1
    max_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.min_nodes < 1:
            raise ValueError("min_nodes must be >= 1")
        if self.max_nodes is not None and self.max_nodes < self.min_nodes:
            raise ValueError("max_nodes must be >= min_nodes")


class ElasticController:
    """The scale-out/in loop of one job (auto-scaling-group pattern).

    Runs as a simulated process racing the job's ``shuffle_done`` event
    (membership only changes during the map/shuffle window); every
    action goes through the job's join/leave path, so controller-driven
    scaling is indistinguishable from a fault-plan schedule — and
    equally output-invariant.

    It samples the mean CPU busy fraction over the active nodes every
    :attr:`INTERVAL` simulated seconds; saturation at or above
    :attr:`HIGH_WATERMARK` joins the lowest-id standby, idling at or
    below :attr:`LOW_WATERMARK` drains the highest-id active node, and
    :attr:`COOLDOWN` spaces consecutive scale actions so one sample
    spike cannot flap the pool.
    """

    HIGH_WATERMARK = 0.85
    LOW_WATERMARK = 0.15
    INTERVAL = 0.02
    COOLDOWN = 0.05

    def __init__(self, execution, policy: ElasticPolicy):
        self.execution = execution
        self.policy = policy
        self.scale_outs = 0
        self.scale_ins = 0

    def _mean_busy(self) -> float:
        cluster = self.execution.cluster
        nodes = self.execution.health.alive_nodes
        if not nodes:
            return 0.0
        return sum(cluster[n].cpu.busy_fraction() for n in nodes) / len(nodes)

    def run(self):
        sim = self.execution.sim
        policy = self.policy
        stop = self.execution.shuffle_done
        last_action = -self.COOLDOWN - 1.0
        while True:
            idx, _ = yield sim.any_of([sim.timeout(self.INTERVAL), stop])
            if idx != 0:
                return
            health = self.execution.health
            active = len(health.alive_nodes)
            if sim.now - last_action < self.COOLDOWN:
                continue
            busy = self._mean_busy()
            cap = (policy.max_nodes if policy.max_nodes is not None
                   else health.n_nodes)
            if (busy >= self.HIGH_WATERMARK and active < cap
                    and health.inactive):
                self.execution.inject_join(None)
                self.scale_outs += 1
                last_action = sim.now
            elif busy <= self.LOW_WATERMARK and active > policy.min_nodes:
                self.execution.inject_leave(None)
                self.scale_ins += 1
                last_action = sim.now


def pick_join(standby: Sequence[int],
              node: Optional[int] = None) -> Optional[int]:
    """The node a scale-out activates: ``node`` if it stands by, else
    (``None``) the lowest-id standby; ``None`` when nothing can join."""
    if node is None:
        return min(standby, default=None)
    return node if node in standby else None


def pick_leave(active: Sequence[int],
               node: Optional[int] = None) -> Optional[int]:
    """The node a scale-in drains: ``node`` if it is active, else
    (``None``) the highest-id active node; ``None`` when nothing can
    leave — the last active node never does."""
    if len(active) <= 1:
        return None
    if node is None:
        return max(active)
    return node if node in active else None


# -- membership transitions of one job ---------------------------------------
#
# ``job`` is a :class:`~repro.core.engine.JobExecution`.  A transition is a
# no-op once ``job.shuffle_done`` fired: from merge finalisation on the job
# already holds everything a node produced, and membership is frozen.

def arm(job) -> None:
    """Turn the job's fault-plan schedule into monitor processes.

    Node crashes, joins and leaves race ``shuffle_done``; a coordinator
    crash races ``job_done`` (the control plane may be killed in *any*
    phase).
    """
    plan = job.faults
    if plan is None:
        return
    window = job.shuffle_done
    monitors = [(f"crash.n{e.node}", e.at, window, partial(crash, job, e.node))
                for e in plan.node_crashes]
    for kind, events, action in (("join", plan.node_joins, join),
                                 ("leave", plan.node_leaves, leave)):
        monitors += [(f"{kind}.{'auto' if e.node is None else e.node}", e.at,
                      window, partial(action, job, e.node)) for e in events]
    monitors += [(f"coordcrash@{e.at}", e.at, job.job_done,
                  job.coordinator.crash_leader)
                 for e in plan.coordinator_crashes]
    for name, at, until, action in monitors:
        job.sim.process(_fire(job.sim, at, until, action), name, job.procs)


def _fire(sim: Simulator, at: float, until: Event, action):
    """Run ``action`` at ``at`` unless ``until`` fires first."""
    idx, _ = yield sim.any_of([sim.timeout(at), until])
    if idx == 0:
        outcome = action()
        if isgenerator(outcome):    # join/leave are process bodies
            yield from outcome


def _stop_node(job, node: int) -> None:
    """Kill ``node``'s map pipelines, in-flight pushes and merge cache."""
    for mp in job.map_phases:
        if mp.node.node_id == node:
            mp.kill()
    job.managers[node].kill()


def _record(job, kind: str, node: int) -> None:
    now = job.sim.now
    job.timeline.record(f"node.{kind}", job.cluster[node].name, now, now,
                        node=node)
    job.membership_events.append({"kind": kind, "node": node, "at": now})


def crash(job, node: int) -> None:
    """Active → dead: the node takes its pipelines, its in-flight pushes
    and its intermediate cache with it."""
    if not job.health.alive(node):
        return
    now = job.sim.now
    job.health.mark_dead(node, now)
    job.timeline.record("node.crash", job.cluster[node].name, now, now,
                        node=node)
    _stop_node(job, node)


def join(job, node: Optional[int]):
    """Standby → active (``None`` picks the lowest-id standby): one
    coordinator round-trip, then the node gets a manager + map pipelines
    and registers with the scheduler — from where the ordinary pull loop
    lets it steal queued splits with zero further engine involvement."""
    health = job.health
    if job.shuffle_done.triggered:
        return
    if node is not None and node not in health.inactive:
        return
    # Admission is a control-plane operation: it blocks (and charges
    # the failover delay) while the coordinator seat is vacant.  An
    # ``auto`` node resolves *after* the barrier so transitions
    # queued behind one failover pick distinct standbys.
    yield from job.coordinator.require_leader()
    if job.shuffle_done.triggered:
        return
    node = pick_join(health.inactive, node)
    if node is None:
        return
    health.activate(node, job.sim.now)
    _record(job, "join", node)
    job.backend.mark_rejoined(node)
    job.scheduler.node_joined(node)
    # A joiner owns no shuffle partitions (the partition space stays
    # pinned to the initial active set) — it contributes map/merge
    # work and receives rehomed partitions only through recovery.
    job.map_waits.extend(mp.pipeline.run()
                         for mp in job.add_node(node, []))


def leave(job, node: Optional[int]):
    """Active → departed (``None`` picks the highest-id live node; the
    last one never leaves): drain through the recovery path.  The node's
    pipelines die like a crash's would, but its durable spill and
    replicas stay readable — so recovery re-pushes from it instead of
    re-executing its splits."""
    health = job.health
    if job.shuffle_done.triggered:
        return
    if node is not None and node not in health.alive_nodes:
        return
    yield from job.coordinator.require_leader()
    if job.shuffle_done.triggered:
        return
    node = pick_leave(health.alive_nodes, node)
    if node is None:
        return
    health.mark_departed(node, job.sim.now)
    _record(job, "leave", node)
    _stop_node(job, node)
    job.scheduler.node_left(node)
    # Evict the departing node's cache-aside entries (its RAM left
    # with it); its *disk* state deliberately survives.
    job.backend.mark_departed(node)
