"""File-affinity placement primitives (shared by every policy).

"Glasswing's scheduler considers file affinity in its job allocation."
The greedy least-loaded-replica assignment lived in
``repro.core.coordinator`` before the scheduling layer was extracted;
it moved here verbatim so the static policy, the recovery path and the
dynamic policies' locality checks all share one implementation.

Tie-breaking is deterministic by construction: among equally loaded
replica holders the lowest node id wins (``min`` keyed by
``(load, node_id)``), so the assignment is invariant under any
permutation of the backend's replica lists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.coordinator import Split
    from repro.storage.backend import BlockLocation, StorageBackend

__all__ = ["affinity_assign", "replica_holders", "holders_by_split"]


def replica_holders(locs: Sequence["BlockLocation"],
                    offset: int) -> List[int]:
    """Nodes holding a replica of the block covering ``offset``."""
    for loc in locs:
        if loc.offset <= offset < loc.offset + max(loc.length, 1):
            return list(loc.replicas)
    return []


def holders_by_split(splits: Sequence["Split"], backend: "StorageBackend"
                     ) -> Dict[int, frozenset]:
    """Split index -> replica-holder node set (empty map entries omitted:
    a split without locality information — node-local storage — has no
    entry, so locality hit/miss accounting can skip it)."""
    locations: Dict[str, List["BlockLocation"]] = {}
    holders: Dict[int, frozenset] = {}
    for split in splits:
        if split.path not in locations:
            locations[split.path] = backend.locations(split.path) or []
        nodes = replica_holders(locations[split.path], split.offset)
        if nodes:
            holders[split.index] = frozenset(nodes)
    return holders


def affinity_assign(splits: Sequence["Split"], backend: "StorageBackend",
                    n_nodes: int,
                    allowed: Optional[Sequence[int]] = None
                    ) -> Dict[int, List["Split"]]:
    """Map each split to a node, preferring replica holders (affinity).

    Greedy least-loaded-replica assignment; falls back to round-robin when
    the backend has no locality information.  ``allowed`` restricts the
    eligible nodes (recovery schedules only onto survivors); affinity is
    kept for replicas on eligible nodes.
    """
    eligible = list(range(n_nodes)) if allowed is None else sorted(allowed)
    if not eligible:
        raise ValueError("no eligible nodes to assign splits to")
    eligible_set = set(eligible)
    assignment: Dict[int, List["Split"]] = {n: [] for n in eligible}
    locations: Dict[str, List["BlockLocation"]] = {}
    for split in splits:
        if split.path not in locations:
            locations[split.path] = backend.locations(split.path) or []
        candidates = [n for n in replica_holders(locations[split.path],
                                                 split.offset)
                      if n in eligible_set]
        if candidates:
            node = min(candidates, key=lambda nid: (len(assignment[nid]), nid))
        else:
            node = eligible[split.index % len(eligible)]
        assignment[node].append(split)
    return assignment
