"""Job coordination: input splitting and the shuffle registry behind
node-crash recovery.

"Glasswing's job coordinator is like Hadoop's: both use a dedicated master
node; Glasswing's scheduler considers file affinity in its job
allocation."  Splits are sized by the job's chunk size; assigning them to
nodes (least-loaded replica holder first, round-robin without locality)
is :func:`repro.core.sched.affinity.affinity_assign`, shared by every
scheduling policy, the recovery path and the Hadoop baseline.

The :class:`ShuffleRegistry` is the coordinator's global view of the
shuffle: which node owns each partition (re-assignable after a crash),
which ``(split, partition)`` runs have been delivered where, and which
map outputs are durable on which node's local disk.  Recovery is pure
bookkeeping over this registry: anything delivered to a dead node, or
never delivered at all, must be re-fetched from a durable copy or
re-executed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.data import SortedRun
from repro.storage.backend import StorageBackend

__all__ = ["Split", "make_splits", "ShuffleRegistry"]


@dataclass(frozen=True)
class Split:
    """One unit of map work: a byte range of one input file."""

    index: int
    path: str
    offset: int
    length: int


def make_splits(backend: StorageBackend, paths: Sequence[str],
                chunk_size: int, record_size: Optional[int] = None
                ) -> List[Split]:
    """Cut the input files into chunk-sized splits.

    ``record_size`` (fixed-record formats) forces split boundaries onto
    record multiples; text records are handled by the reader's
    skip-partial-first / read-ahead-last protocol instead.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if record_size is not None:
        if record_size > chunk_size:
            raise ValueError("records larger than the chunk size")
        chunk_size -= chunk_size % record_size
    splits: List[Split] = []
    for path in paths:
        total = backend.size(path)
        offset = 0
        while offset < total:
            length = min(chunk_size, total - offset)
            splits.append(Split(len(splits), path, offset, length))
            offset += length
    return splits


class ShuffleRegistry:
    """Global shuffle bookkeeping: ownership, deliveries, durable output.

    One instance per job, shared by the coordinator, every map pipeline
    and the recovery layer.  Three tables:

    * ``owner_of(pid)`` — which node reduces partition ``pid``; initially
      ``pid % n_nodes``, re-assigned to survivors after a node crash;
    * the **delivery ledger** — ``(split, pid) -> node`` recorded when a
      sorted run reaches its owner's intermediate manager.  An entry
      pointing at a dead node (or missing entirely: shuffle data lost in
      flight) marks data that recovery must reproduce;
    * the **durable index** — per ``(node, split)`` the partition buckets
      whose full copy the map output stage persisted to that node's local
      disk (§III-A stage 5).  Buckets durable on a survivor are recovered
      by a cheap disk re-read + re-push; everything else needs the split
      re-executed.
    """

    def __init__(self, n_nodes: int, partitions_per_node: int,
                 nodes: Optional[Sequence[int]] = None):
        """``nodes`` restricts the partition space to an explicit active
        set (elastic jobs start on a subset of the hardware): the
        partition count and initial ownership follow the *active* nodes,
        so later joins/leaves never change the output partitioning.
        ``nodes=None`` keeps the classic ``pid % n_nodes`` layout."""
        self.n_nodes = n_nodes
        owners = list(nodes) if nodes is not None else list(range(n_nodes))
        if not owners or any(not (0 <= n < n_nodes) for n in owners):
            raise ValueError(
                f"registry nodes {owners} outside the {n_nodes}-node cluster")
        self.total_partitions = len(owners) * partitions_per_node
        self._owner: Dict[int, int] = {pid: owners[pid % len(owners)]
                                       for pid in range(self.total_partitions)}
        self.delivered: Dict[Tuple[int, int], int] = {}
        self.durable: Dict[Tuple[int, int], Dict[int, SortedRun]] = {}

    # -- ownership ---------------------------------------------------------
    def owner_of(self, pid: int) -> int:
        return self._owner[pid]

    def owned_by(self, node: int) -> List[int]:
        return sorted(p for p, o in self._owner.items() if o == node)

    def reassign(self, pid: int, new_owner: int) -> None:
        self._owner[pid] = new_owner

    # -- delivery ledger ---------------------------------------------------
    def mark_delivered(self, split: int, pid: int, node: int) -> None:
        self.delivered[(split, pid)] = node

    def delivered_to_live(self, split: int, pid: int, alive) -> bool:
        """True when this run already sits in a surviving manager."""
        node = self.delivered.get((split, pid))
        return node is not None and alive(node)

    # -- durable map output ------------------------------------------------
    def mark_durable(self, node: int, split: int,
                     buckets: Dict[int, SortedRun]) -> None:
        self.durable[(node, split)] = buckets

    # -- recovery planning -------------------------------------------------
    def recovery_plan(self, all_splits: Sequence[Split], alive, durable_alive
                      ) -> Tuple[Dict[Tuple[int, int], List[Tuple[int, int, SortedRun]]],
                                 List[Split]]:
        """What the survivors must do after node loss.

        Returns ``(repushes, reexec_splits)``: ``repushes`` maps a
        ``(source_node, owner_node)`` pair to the ``(split, pid, run)``
        entries the source must re-read from its durable spill and
        re-push; ``reexec_splits`` lists splits needing full re-execution
        (their mapper died, taking the durable copy with it — or they
        never completed at all).  Every ``(split, pid)`` the ledger shows
        as lost is covered by exactly one of the two.

        ``durable_alive`` widens the durable-holder predicate beyond
        ``alive``: a *departed* (drained) node takes no new work but its
        local spill is still readable, so it remains a re-push source —
        the difference between decommissioning a node and losing it.
        """
        repushes: Dict[Tuple[int, int], List[Tuple[int, int, SortedRun]]] = {}
        reexec: List[Split] = []
        for split in all_splits:
            durable_holder = None
            for (node, s) in self.durable:
                if s == split.index and durable_alive(node):
                    durable_holder = node
                    break
            lost_pids = [pid for pid in range(self.total_partitions)
                         if not self.delivered_to_live(split.index, pid, alive)]
            if not lost_pids:
                continue
            if durable_holder is None:
                reexec.append(split)
                continue
            buckets = self.durable[(durable_holder, split.index)]
            for pid in lost_pids:
                run = buckets.get(pid)
                if run is None:
                    continue    # split produced nothing for this partition
                owner = self.owner_of(pid)
                repushes.setdefault((durable_holder, owner), []).append(
                    (split.index, pid, run))
        return repushes, reexec
