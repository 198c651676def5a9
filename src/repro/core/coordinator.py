"""Job coordination: input splitting and the shuffle registry behind
node-crash recovery.

"Glasswing's job coordinator is like Hadoop's: both use a dedicated master
node; Glasswing's scheduler considers file affinity in its job
allocation."  Splits are sized by the job's chunk size; assigning them to
nodes (least-loaded replica holder first, round-robin without locality)
is :func:`repro.core.sched.affinity.affinity_assign`, shared by every
scheduling policy, the recovery path and the Hadoop baseline.

The :class:`ShuffleRegistry` is the coordinator's global view of the
shuffle, over which node-crash recovery is pure bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.data import MapBlock
from repro.storage.backend import StorageBackend

__all__ = ["Split", "make_splits", "ShuffleRegistry"]

#: what one recovery source re-pushes to one owner: ``(block, pids)`` pairs
Buckets = List[Tuple[MapBlock, List[int]]]


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

    * ``owners[pid]`` — which node reduces partition ``pid``; initially
      ``pid % n_nodes``, re-assigned to survivors after a node crash;
    * the **delivery ledger** — per split, the node each partition's
      bucket reached (-1 until it does).  A bucket marked at a dead node,
      or not at all (shuffle data lost in flight), is data that recovery
      must reproduce;
    * the **durable index** — per split, the nodes whose local disk holds
      the split's :class:`~repro.core.data.MapBlock` (§III-A stage 5), in
      the order they wrote it.  Buckets durable on a survivor are
      recovered by a cheap disk re-read + re-push; everything else needs
      the split re-executed.
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
        self.owners = np.resize(owners, self.total_partitions)    # cyclic
        self.delivered: Dict[int, np.ndarray] = {}
        self.durable: Dict[int, Dict[int, MapBlock]] = {}

    # -- ownership ---------------------------------------------------------
    def owned_by(self, node: int) -> List[int]:
        return np.flatnonzero(self.owners == node).tolist()

    def reassign(self, pid: int, new_owner: int) -> None:
        self.owners[pid] = new_owner

    # -- durable map output and deliveries -----------------------------------
    def mark_durable(self, node: int, block: MapBlock) -> None:
        """``node``'s disk holds ``block``.  Its empty buckets count as
        delivered to their current owners, or recovery would re-run it."""
        self.durable.setdefault(block.split, {})[node] = block
        ledger = self.delivered.setdefault(
            block.split, np.full(self.total_partitions, -1))
        empty = np.ones(self.total_partitions, dtype=bool)
        empty[block.pids] = False
        ledger[empty] = self.owners[empty]

    def deliver(self, managers, owner: int, block: MapBlock,
                pids: List[int]) -> None:
        """Hand buckets ``pids`` of ``block`` to ``owner``'s manager and
        mark them delivered: the one way shuffle data lands."""
        managers[owner].add_block(block, pids)
        self.delivered[block.split][pids] = owner

    def lost(self, split: int, alive) -> np.ndarray:
        """Mask over partitions: ``split``'s buckets in no manager that
        ``alive`` accepts (never delivered, or delivered to a dead node)."""
        live = np.array([alive(n) for n in range(self.n_nodes)] + [False])
        ledger = self.delivered.get(split, np.full(self.total_partitions, -1))
        return ~live[ledger]    # -1, the not-delivered mark, reads False

    def route(self, block: MapBlock, alive=None) -> Dict[int, List[int]]:
        """``block``'s non-empty buckets by owner, owners in order of their
        first pid; given ``alive``, only the buckets :meth:`lost` names."""
        pids = block.pids
        if alive is not None:
            lost = self.lost(block.split, alive)
            pids = [pid for pid in pids if lost[pid]]
        groups: Dict[int, List[int]] = {}
        for pid, owner in zip(pids, self.owners[pids].tolist()):
            groups.setdefault(owner, []).append(pid)
        return groups

    # -- recovery planning -------------------------------------------------
    def recovery_plan(self, all_splits: Sequence[Split], alive, durable_alive
                      ) -> Tuple[Dict[Tuple[int, int], Buckets], List[Split]]:
        """What the survivors must do after node loss.

        Returns ``(repushes, reexec_splits)``: ``repushes`` maps a
        ``(source_node, owner_node)`` pair to the buckets the source must
        re-read from its durable spill and re-push; ``reexec_splits``
        lists splits needing full re-execution (their mapper died, taking
        the durable copy with it — or they never completed at all).  Every
        bucket the ledger shows as lost is covered by exactly one of them.

        ``durable_alive`` widens the durable-holder predicate beyond
        ``alive``: a *departed* (drained) node takes no new work but its
        local spill is still readable, so it remains a re-push source —
        the difference between decommissioning a node and losing it.
        """
        repushes: Dict[Tuple[int, int], Buckets] = {}
        reexec: List[Split] = []
        for split in all_splits:
            if not self.lost(split.index, alive).any():
                continue
            holders = self.durable.get(split.index, {})
            holder = next((n for n in holders if durable_alive(n)), None)
            if holder is None:
                reexec.append(split)
                continue
            for owner, pids in self.route(holders[holder], alive).items():
                repushes.setdefault((holder, owner), []).append(
                    (holders[holder], pids))
        return repushes, reexec
