"""Operation-level global-queue policy (OS4M-style).

Like ``dynamic-locality`` this pulls from one global pool at runtime,
but instead of FIFO order it scores candidates for global load balance:
each node is handed its *largest* remaining local split (longest
processing time first), falling back to the largest split anywhere.
LPT ordering keeps the biggest operations from landing at the tail of
the schedule, which is where static assignment loses on skew.

Elastic membership is inherited from the dynamic policy and needs no
LPT-specific handling: ``_peek`` re-scores the pool on every pull, so a
node that joins mid-job immediately competes for the largest remaining
split (exactly the OS4M goal — global balance maintained as the worker
set changes), and a leaver's unpulled work is simply re-scored for
whoever asks next.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.sched.dynamic import DynamicLocalityScheduler, _Pool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.coordinator import Split

__all__ = ["OpLevelScheduler"]


def _largest(candidates) -> Optional["Split"]:
    best = None
    for split in candidates:
        if best is None or (split.length, -split.index) > \
                (best.length, -best.index):
            best = split
    return best


class OpLevelScheduler(DynamicLocalityScheduler):

    name = "oplevel"

    def _peek(self, node_id: int, phase: str) -> Optional["Split"]:
        pool = self._pool_for(phase)
        local = self._peek_local_lpt(pool, node_id)
        if local is not None:
            return local
        return _largest(pool.splits.values())

    @staticmethod
    def _peek_local_lpt(pool: _Pool, node_id: int) -> Optional["Split"]:
        queue = pool.local.get(node_id)
        if not queue:
            return None
        return _largest(pool.splits[i] for i in queue if i in pool.splits)

    def _helper_rank(self, node: int, active: int, local: bool) -> tuple:
        # Global balance first, locality as the tie-break.
        return active, not local, node
