"""Static file-affinity policy — the pre-refactor behaviour, extracted.

The whole split→node mapping is computed up front by
:func:`repro.core.sched.affinity.affinity_assign` (greedy
least-loaded-replica with deterministic tie-breaking) and each node then
drains its own queue in order.  Nothing rebalances at runtime: a node
that finishes early idles, exactly as the original coordinator-driven
engine behaved.  This is the compatibility baseline every differential
test pins.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence

from repro.core.sched.affinity import affinity_assign
from repro.core.sched.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.coordinator import Split
    from repro.storage.backend import StorageBackend

__all__ = ["StaticAffinityScheduler"]


class StaticAffinityScheduler(Scheduler):

    name = "static-affinity"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._queues: Dict[int, Deque["Split"]] = {}
        self._recovery: Dict[int, Deque["Split"]] = {}

    def _plan(self, splits: Sequence["Split"], backend: "StorageBackend",
              n_nodes: int) -> None:
        # Restrict to the active subset only when one exists — the
        # unrestricted call is the pre-elastic baseline, kept verbatim.
        allowed = self.active if len(self.active) < n_nodes else None
        assignment = affinity_assign(splits, backend, n_nodes,
                                     allowed=allowed)
        self._queues = {n: deque(q) for n, q in assignment.items()}

    def _plan_recovery(self, splits: Sequence["Split"],
                       backend: "StorageBackend",
                       survivors: List[int]) -> None:
        assignment = affinity_assign(splits, backend, self.n_nodes,
                                     allowed=survivors)
        self._recovery = {n: deque(q) for n, q in assignment.items() if q}

    def _queue(self, node_id: int, phase: str) -> Deque["Split"]:
        source = self._recovery if phase == "recovery" else self._queues
        return source.get(node_id, deque())

    def _peek(self, node_id: int, phase: str) -> Optional["Split"]:
        queue = self._queue(node_id, phase)
        return queue[0] if queue else None

    def _take(self, node_id: int, split: "Split", phase: str) -> None:
        queue = self._queue(node_id, phase)
        assert queue and queue[0] is split
        queue.popleft()

    def _backlog_cost(self, node_id: int, phase: str) -> float:
        return float(sum(s.length for s in self._queue(node_id, phase)))

    def queue_depth(self) -> int:
        return (sum(len(q) for q in self._queues.values())
                + sum(len(q) for q in self._recovery.values()))

    def recovery_nodes(self) -> List[int]:
        # Only survivors that were actually assigned re-execution work run
        # a recovery pipeline (matches the pre-refactor engine).
        return sorted(n for n, q in self._recovery.items() if q)

    # -- elastic membership ------------------------------------------------
    # The static mapping is the one policy with no runtime pull freedom,
    # so membership changes must *rebalance the mapping itself*: on a
    # join every not-yet-pulled split is re-assigned over the new active
    # set (the joiner steals its affinity share), and on a leave the
    # departing node's queued splits are re-spread over the remainder.

    def _node_joined(self, node_id: int) -> None:
        remaining = [s for _, q in sorted(self._queues.items()) for s in q]
        if not remaining or self._backend is None:
            return
        remaining.sort(key=lambda s: s.index)
        assignment = affinity_assign(remaining, self._backend, self.n_nodes,
                                     allowed=self.active)
        self._queues = {n: deque(q) for n, q in assignment.items()}

    def _node_left(self, node_id: int) -> None:
        orphaned = list(self._queues.pop(node_id, ()))
        orphaned.extend(self._recovery.pop(node_id, ()))
        if not orphaned or self._backend is None or not self.active:
            return
        orphaned.sort(key=lambda s: s.index)
        assignment = affinity_assign(orphaned, self._backend, self.n_nodes,
                                     allowed=self.active)
        for n, q in assignment.items():
            if q:
                self._queues.setdefault(n, deque()).extend(q)
