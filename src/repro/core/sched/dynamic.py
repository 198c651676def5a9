"""Dynamic locality-preferring policy: nodes pull work at runtime.

All splits sit in one global pool.  When a node asks for work it gets
the oldest split with a replica on that node; only when none of its
local splits remain does it steal the oldest remote split.  A node stuck
on a huge split simply stops pulling while the rest of the cluster
drains the pool — skew rebalances itself instead of idling the cluster
behind a static assignment.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence

from repro.core.sched.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.coordinator import ShuffleRegistry, Split
    from repro.storage.backend import StorageBackend

__all__ = ["DynamicLocalityScheduler"]


class _Pool:
    """Insertion-ordered split pool with lazy per-node locality queues."""

    def __init__(self):
        self.splits: Dict[int, "Split"] = {}    # index -> split, FIFO order
        self.local: Dict[int, Deque[int]] = {}  # node -> indices (lazy)
        self.cost = 0.0

    def add(self, split: "Split", holders: Optional[frozenset]) -> None:
        self.splits[split.index] = split
        self.cost += float(split.length)
        for node in (holders or ()):
            self.local.setdefault(node, deque()).append(split.index)

    def peek_local(self, node_id: int) -> Optional["Split"]:
        queue = self.local.get(node_id)
        while queue:
            index = queue[0]
            if index in self.splits:     # may have been taken elsewhere
                return self.splits[index]
            queue.popleft()
        return None

    def peek_any(self) -> Optional["Split"]:
        for split in self.splits.values():
            return split
        return None

    def take(self, split: "Split") -> None:
        del self.splits[split.index]
        self.cost -= float(split.length)


class DynamicLocalityScheduler(Scheduler):

    name = "dynamic-locality"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pool = _Pool()
        self._recovery_pool = _Pool()
        self._survivors: List[int] = []

    def _pool_for(self, phase: str) -> _Pool:
        return self._recovery_pool if phase == "recovery" else self._pool

    def _plan(self, splits: Sequence["Split"], backend: "StorageBackend",
              n_nodes: int) -> None:
        for split in splits:
            self._pool.add(split, self._holders.get(split.index))

    def _plan_recovery(self, splits: Sequence["Split"],
                       backend: "StorageBackend",
                       survivors: List[int]) -> None:
        self._survivors = survivors
        survivor_set = frozenset(survivors)
        for split in splits:
            holders = self._holders.get(split.index)
            if holders is not None:
                holders = holders & survivor_set
            self._recovery_pool.add(split, holders)

    def _peek(self, node_id: int, phase: str) -> Optional["Split"]:
        pool = self._pool_for(phase)
        return pool.peek_local(node_id) or pool.peek_any()

    def _take(self, node_id: int, split: "Split", phase: str) -> None:
        self._pool_for(phase).take(split)

    def _backlog_cost(self, node_id: int, phase: str) -> float:
        return self._pool_for(phase).cost

    def queue_depth(self) -> int:
        return len(self._pool.splits) + len(self._recovery_pool.splits)

    def recovery_nodes(self) -> List[int]:
        # Every survivor can pull from the shared recovery pool.
        return self._survivors

    # -- elastic membership ------------------------------------------------
    def _node_joined(self, node_id: int) -> None:
        # The global pool needs no rebalancing — the joiner's first
        # ``next_for`` steals the oldest split.  But locality preference
        # is per-node state built at ``add`` time, so (re)build the
        # joiner's local queue for any pooled split it holds a replica of
        # (possible when the job shares a DFS laid out over more hardware
        # than its initial active set).
        for pool in (self._pool, self._recovery_pool):
            queue = pool.local.setdefault(node_id, deque())
            present = set(queue)
            for index in pool.splits:
                holders = self._holders.get(index)
                if holders and node_id in holders and index not in present:
                    queue.append(index)

    # _node_left needs nothing: the departed node stops pulling and its
    # stale ``local`` queue entries are skipped lazily by ``peek_local``.

    # -- load-aware fault tolerance ---------------------------------------
    def rehome(self, pid: int, survivors: Sequence[int],
               registry: Optional["ShuffleRegistry"] = None) -> int:
        if registry is None:
            return super().rehome(pid, survivors, registry)
        return min(survivors,
                   key=lambda n: (len(registry.owned_by(n)), n))

    def _helper_rank(self, node: int, active: int, local: bool) -> tuple:
        return not local, active, node
