"""Iterative PageRank as a broadcast-driven multi-round DAG.

The MRC papers use PageRank-style iteration as the canonical workload
MapReduce must loop over; one power-iteration round is one Glasswing
job, and the tiny rank vector is per-round broadcast state (like
k-means centers):

* :class:`PageRankDegreeApp` runs **once**: map each ``(src, dst)``
  edge to ``(src, 1)``; reduce counts out-degrees (exact int math).
* :class:`PageRankContribApp` runs **per round**: map each edge to
  ``(dst, rank[src] / degree[src])``; reduce sums the contributions
  (sorted first, so output is independent of arrival order) and applies
  the damped update ``(1 - d)/n + d * sum``.

Edge records are 8 bytes: two little-endian int32s ``(src, dst)``.  The
generator (:func:`repro.apps.datagen.pagerank_edges`) guarantees every
vertex at least one out-edge, so there is no dangling-mass term.
Vertices with no *in*-edges receive no reduce output; the driver fills
their rank with ``(1 - d)/n`` after each round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hw.specs import ClusterSpec, DeviceSpec
from repro.ocl.kernel import KernelCost
from repro.storage.records import FixedRecordFormat, KVSchema

from repro.core.api import MapReduceApp
from repro.core.config import JobConfig

__all__ = ["PageRankDegreeApp", "PageRankContribApp", "PageRankRun",
           "pagerank_iterate", "pagerank_reference", "EDGE_SIZE"]

EDGE_SIZE = 8  # <i4 src + <i4 dst


def _edges(records: np.ndarray) -> np.ndarray:
    """A split's records as an ``(n, 2)`` int32 array of (src, dst) rows."""
    return records.view("<i4").reshape(-1, 2)


class PageRankDegreeApp(MapReduceApp):
    """Out-degree counting: one exact-integer round over the edge list."""

    has_combiner = True
    record_format = FixedRecordFormat(EDGE_SIZE)
    name = "pagerank-degrees"
    inter_schema = KVSchema(
        "prdeg-inter", key_bytes=4, value_bytes=4)
    output_schema = KVSchema(
        "prdeg-out", key_bytes=4, value_bytes=4)

    def map_batch(self, records: Sequence[bytes]) -> List[Tuple[int, int]]:
        src = _edges(records)[:, 0]
        return [(int(s), 1) for s in src.tolist()]

    def combine(self, key: int, values: List[int]) -> List[int]:
        return [sum(values)]

    def reduce(self, key: int, values: List[int]) -> List[Tuple[int, int]]:
        return [(key, sum(values))]

    def map_cost(self, device: DeviceSpec, n_records: int,
                 in_bytes: int) -> KernelCost:
        return KernelCost(flops=2.0 * n_records, device_bytes=2.0 * in_bytes)

    def reduce_cost(self, device: DeviceSpec, n_keys: int,
                    n_values: int) -> KernelCost:
        return KernelCost(flops=1.0 * n_values + 2.0 * n_keys,
                          device_bytes=8.0 * n_values, launches=0)


class PageRankContribApp(MapReduceApp):
    """One damped power-iteration round over the (cached) edge list."""

    has_combiner = True
    record_format = FixedRecordFormat(EDGE_SIZE)

    def __init__(self, ranks: np.ndarray, degrees: Dict[int, int],
                 damping: float = 0.85):
        ranks = np.asarray(ranks, dtype=np.float64)
        if ranks.ndim != 1 or not len(ranks):
            raise ValueError("ranks must be a non-empty 1-D float vector")
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        self.ranks = ranks
        self.n = len(ranks)
        # Dense per-vertex share vector: rank / out-degree, computed once
        # per round instead of per record.
        deg = np.ones(self.n, dtype=np.float64)
        for v, d in degrees.items():
            deg[v] = max(d, 1)
        self.share = ranks / deg
        self.damping = float(damping)
        self.name = f"pagerank-n{self.n}"
        self.inter_schema = KVSchema(
            "pr-inter", key_bytes=4, value_bytes=8)
        self.output_schema = KVSchema(
            "pr-out", key_bytes=4, value_bytes=8)

    def map_batch(self, records: Sequence[bytes]
                  ) -> List[Tuple[int, float]]:
        edges = _edges(records)
        contribs = self.share[edges[:, 0]]
        return list(zip(edges[:, 1].tolist(), contribs.tolist()))

    def combine(self, key: int, values: List[float]) -> List[float]:
        # Sorted before summing: float addition is order-sensitive and
        # shuffle arrival order is scheduling-dependent.
        return [float(np.sum(np.sort(np.asarray(values, dtype=np.float64))))]

    def reduce(self, key: int, values: List[float]
               ) -> List[Tuple[int, float]]:
        total = float(np.sum(np.sort(np.asarray(values, dtype=np.float64))))
        rank = (1.0 - self.damping) / self.n + self.damping * total
        return [(key, rank)]

    def map_cost(self, device: DeviceSpec, n_records: int,
                 in_bytes: int) -> KernelCost:
        return KernelCost(flops=3.0 * n_records, device_bytes=2.0 * in_bytes)

    def reduce_cost(self, device: DeviceSpec, n_keys: int,
                    n_values: int) -> KernelCost:
        return KernelCost(flops=2.0 * n_values + 4.0 * n_keys,
                          device_bytes=12.0 * n_values, launches=0)


@dataclass
class PageRankRun:
    """Outcome of an iterative PageRank session."""

    ranks: np.ndarray                    # final (n,) float64 rank vector
    degrees: Dict[int, int]
    rounds: int
    deltas: List[float]                  # max |rank change| per round
    dag_results: List[Any]               # one repro.dag.DagResult per round
    runner: Any

    @property
    def total_time(self) -> float:
        """Simulated seconds across the degree round and every iteration."""
        return sum(r.total_time for r in self.dag_results)


def pagerank_iterate(edges: bytes, n_vertices: int,
                     cluster_spec: ClusterSpec,
                     config: Optional[JobConfig] = None,
                     rounds: int = 5, damping: float = 0.85,
                     runner: Optional[Any] = None,
                     costs: Optional[Any] = None) -> PageRankRun:
    """Run ``rounds`` damped power-iteration rounds over ``edges``.

    The degree job runs once; every iteration round then re-reads the
    same pinned edge list — served from the cache-aside layer after the
    first read — and only the tiny rank vector travels between rounds as
    broadcast state.
    """
    from repro.dag import DAG, DagRunner

    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if len(edges) % EDGE_SIZE:
        raise ValueError(f"edges blob must be a multiple of {EDGE_SIZE} bytes")
    if runner is None:
        kwargs = {} if costs is None else {"costs": costs}
        runner = DagRunner(cluster_spec, config=config, **kwargs)

    degree_dag = DAG("pagerank-degrees")
    degree_dag.add_input("pagerank-edges.bin", edges)
    degree_dag.add_stage(
        "degrees", PageRankDegreeApp(), ["pagerank-edges.bin"],
        publish=lambda pairs: {"degrees": dict(pairs)})

    rank_dag = DAG("pagerank")
    rank_dag.add_input("pagerank-edges.bin", edges)
    rank_dag.add_stage(
        "contrib",
        lambda b: PageRankContribApp(b["ranks"], b["degrees"],
                                     damping=damping),
        ["pagerank-edges.bin"],
        publish=lambda pairs: {"contribs": dict(pairs)})

    results = [runner.run(degree_dag)]
    degrees = results[0].broadcast["degrees"]
    ranks = np.full(n_vertices, 1.0 / n_vertices, dtype=np.float64)
    base = (1.0 - damping) / n_vertices
    deltas: List[float] = []
    for _ in range(rounds):
        res = runner.run(rank_dag,
                         broadcast={"ranks": ranks, "degrees": degrees})
        results.append(res)
        new_ranks = np.full(n_vertices, base, dtype=np.float64)
        for vertex, rank in res.broadcast["contribs"].items():
            new_ranks[vertex] = rank
        deltas.append(float(np.max(np.abs(new_ranks - ranks))))
        ranks = new_ranks
    return PageRankRun(ranks=ranks, degrees=degrees, rounds=rounds,
                       deltas=deltas, dag_results=results, runner=runner)


def pagerank_reference(edges: bytes, n_vertices: int, rounds: int,
                       damping: float = 0.85) -> np.ndarray:
    """Dense numpy power iteration with the same update rule — the
    differential tests compare the DAG result against this (tolerantly:
    summation order differs)."""
    rows = np.frombuffer(edges, dtype="<i4").reshape(-1, 2)
    src, dst = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)
    degrees = np.bincount(src, minlength=n_vertices).astype(np.float64)
    degrees = np.maximum(degrees, 1.0)
    ranks = np.full(n_vertices, 1.0 / n_vertices, dtype=np.float64)
    base = (1.0 - damping) / n_vertices
    for _ in range(rounds):
        contrib = np.zeros(n_vertices, dtype=np.float64)
        np.add.at(contrib, dst, ranks[src] / degrees[src])
        ranks = np.where(
            np.bincount(dst, minlength=n_vertices) > 0,
            base + damping * contrib, base)
    return ranks
