"""Fault matrix for the multi-round DAG apps: {prefixsum, pagerank} ×
{map crash, reduce crash, node crash, straggler+speculation}.

Every cell asserts the repo's headline fault guarantee extended to DAGs:
a faulted round produces the same output as the fault-free golden run.
Prefix sums are all-integer, so equality is exact; PageRank reduces sort
values before the float sums, so its per-round output is deterministic
too, but the comparison stays tolerant in case re-execution regroups
combiner batches.
"""

import numpy as np
import pytest

from repro.apps.datagen import pagerank_edges, prefix_values
from repro.apps.pagerank import pagerank_iterate
from repro.apps.prefixsum import PrefixBlockSumApp, PrefixScanApp, \
    exclusive_offsets, prefix_sums
from repro.core import JobConfig
from repro.core.faults import FaultPlan, NodeCrash
from repro.dag import DAG, DagRunner
from repro.hw.presets import das4_cluster

#: sampled, and what a finished job's retired gauges stored re-checked
pytestmark = pytest.mark.usefixtures("retired_gauges_hold")

NODES = 4


def config(speculative=False):
    return JobConfig(chunk_size=8 * 1024, storage="dfs",
                     input_replication=NODES, scheduler="static-affinity",
                     speculative_execution=speculative)


def make_plan(fault, golden_map_time):
    """A fresh plan per stage: FaultPlan tracks injected attempts, so a
    shared instance would fire only in the first stage that hits it."""
    if fault == "map-crash":
        return FaultPlan(map_failures={0: 1, 1: 1})
    if fault == "reduce-crash":
        # Cover every partition: which ones hold keys depends on the app.
        return FaultPlan(reduce_failures={p: 1 for p in range(NODES)})
    if fault == "node-crash":
        return FaultPlan(
            node_crashes=(NodeCrash(node=2, at=golden_map_time / 2),))
    return FaultPlan(stragglers={0: 6.0})


class PrefixCase:
    VALUES = prefix_values(3_000, seed=41)
    BLOCK = 512

    @staticmethod
    def run(faults=None, speculative=False):
        runner = DagRunner(das4_cluster(nodes=NODES),
                           config=config(speculative))
        run = prefix_sums(PrefixCase.VALUES, das4_cluster(nodes=NODES),
                          runner=runner)
        if faults is None:
            return run
        # Replay the same two-stage DAG with the fault plan on both
        # stages, on a fresh runner (fault-free golden stays golden).
        runner = DagRunner(das4_cluster(nodes=NODES),
                           config=config(speculative))
        dag = DAG("prefix-sums")
        dag.add_input("prefix-values.bin", PrefixCase.VALUES)
        dag.add_stage("blocksum", PrefixBlockSumApp(PrefixCase.BLOCK),
                      ["prefix-values.bin"],
                      publish=lambda pairs: {"block_sums": dict(pairs)})
        dag.add_stage(
            "scan",
            lambda b: PrefixScanApp(exclusive_offsets(b["block_sums"]),
                                    PrefixCase.BLOCK),
            ["prefix-values.bin"], after=["blocksum"])
        result = runner.run(dag, faults=faults)
        prefix = np.zeros(len(PrefixCase.VALUES) // 16, dtype=np.int64)
        for index, total in result.outputs["scan"]:
            prefix[index] = total
        return prefix, result

    @staticmethod
    def golden():
        run = prefix_sums(PrefixCase.VALUES, das4_cluster(nodes=NODES),
                          config=config(), block_size=PrefixCase.BLOCK)
        return run


class PageRankCase:
    EDGES = pagerank_edges(300, 1_800, seed=43)
    N = 300
    ROUNDS = 2

    @staticmethod
    def golden():
        return pagerank_iterate(PageRankCase.EDGES, PageRankCase.N,
                                das4_cluster(nodes=NODES), config=config(),
                                rounds=PageRankCase.ROUNDS)


@pytest.fixture(scope="module")
def prefix_golden():
    return PrefixCase.golden()


@pytest.fixture(scope="module")
def pagerank_golden():
    return PageRankCase.golden()


@pytest.mark.parametrize("fault", ["map-crash", "reduce-crash",
                                   "node-crash", "straggler"])
def test_prefixsum_output_survives_faults(fault, prefix_golden):
    golden_map = prefix_golden.dag_result.stage_runs[0].result.map_time
    faults = {name: make_plan(fault, golden_map)
              for name in ("blocksum", "scan")}
    prefix, result = PrefixCase.run(faults=faults,
                                    speculative=(fault == "straggler"))
    assert (prefix == prefix_golden.prefix).all()
    if fault in ("map-crash", "reduce-crash"):
        assert sum(r.result.stats["task_failures"]
                   for r in result.stage_runs) > 0
        for run in result.stage_runs:
            assert run.result.stats["leaked_buffer_slots"] == 0
    if fault == "node-crash":
        assert result.stage_runs[0].result.stats["dead_nodes"] == [2]


@pytest.mark.parametrize("fault", ["map-crash", "reduce-crash",
                                   "node-crash", "straggler"])
def test_pagerank_output_survives_faults(fault, pagerank_golden):
    golden_map = pagerank_golden.runner.stage_runs[0].result.map_time
    runner = DagRunner(das4_cluster(nodes=NODES),
                       config=config(fault == "straggler"))
    # Rebuild pagerank's two DAGs by hand so every round carries faults.
    from repro.apps.pagerank import PageRankContribApp, PageRankDegreeApp
    degree_dag = DAG("pagerank-degrees")
    degree_dag.add_input("pagerank-edges.bin", PageRankCase.EDGES)
    degree_dag.add_stage("degrees", PageRankDegreeApp(),
                         ["pagerank-edges.bin"],
                         publish=lambda pairs: {"degrees": dict(pairs)})
    rank_dag = DAG("pagerank")
    rank_dag.add_input("pagerank-edges.bin", PageRankCase.EDGES)
    rank_dag.add_stage(
        "contrib",
        lambda b: PageRankContribApp(b["ranks"], b["degrees"]),
        ["pagerank-edges.bin"],
        publish=lambda pairs: {"contribs": dict(pairs)})

    degrees = runner.run(
        degree_dag,
        faults={"degrees": make_plan(fault, golden_map)}).broadcast["degrees"]
    assert degrees == pagerank_golden.degrees
    n = PageRankCase.N
    ranks = np.full(n, 1.0 / n)
    for _ in range(PageRankCase.ROUNDS):
        res = runner.run(rank_dag,
                         broadcast={"ranks": ranks, "degrees": degrees},
                         faults={"contrib": make_plan(fault, golden_map)})
        new_ranks = np.full(n, 0.15 / n)
        for vertex, rank in res.broadcast["contribs"].items():
            new_ranks[vertex] = rank
        ranks = new_ranks
    assert np.allclose(ranks, pagerank_golden.ranks, rtol=0, atol=1e-12)
