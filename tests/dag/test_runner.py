"""DagRunner semantics: shared session, broadcast, joins, caching, traces."""

import numpy as np
import pytest

from repro.apps import WordCountApp
from repro.apps.datagen import prefix_values, wiki_text
from repro.apps.prefixsum import (RECORD_SIZE, PrefixBlockSumApp,
                                  exclusive_offsets)
from repro.core import JobConfig
from repro.dag import DAG, DagError, DagRunner, StageOutput
from repro.hw.presets import das4_cluster

N = 2_048
BLOCK = 256


def config(storage="local"):
    return JobConfig(chunk_size=8 * 1024, storage=storage,
                     scheduler="static-affinity")


def values_blob():
    return prefix_values(N, seed=5)


def rows():
    return np.frombuffer(values_blob(), dtype="<i8").reshape(-1, 2)


def block_sum_dag():
    dag = DAG("sums")
    dag.add_input("values.bin", values_blob())
    dag.add_stage("blocksum", PrefixBlockSumApp(BLOCK), ["values.bin"],
                  publish=lambda pairs: {"block_sums": dict(pairs)})
    return dag


def expected_block_sums():
    data = rows()
    out = {}
    for block, value in zip((data[:, 0] // BLOCK).tolist(),
                            data[:, 1].tolist()):
        out[block] = out.get(block, 0) + value
    return out


def test_single_stage_round_with_publish():
    runner = DagRunner(das4_cluster(nodes=2), config=config())
    result = runner.run(block_sum_dag())
    assert result.round == 1
    assert result.broadcast["block_sums"] == expected_block_sums()
    assert [r.label for r in result.stage_runs] == ["blocksum@r1"]
    assert result.total_time > 0


def test_stage_output_fan_in_join():
    """A downstream stage consumes the upstream's reduced output file."""
    coarse = 4  # coarse block = 4 fine blocks

    def encode(pairs):
        return np.array(pairs, dtype="<i8").tobytes()

    dag = DAG("two-level")
    dag.add_input("values.bin", values_blob())
    dag.add_stage("fine", PrefixBlockSumApp(BLOCK), ["values.bin"])
    dag.add_stage("coarse", PrefixBlockSumApp(coarse),
                  [StageOutput("fine", encode)])
    runner = DagRunner(das4_cluster(nodes=2), config=config())
    result = runner.run(dag)

    fine = expected_block_sums()
    want = {}
    for block, total in fine.items():
        want[block // coarse] = want.get(block // coarse, 0) + total
    assert dict(result.outputs["coarse"]) == want
    # The join file exists on the backend but is never pinned.
    assert runner.backend.exists("fine.out")
    assert not runner.backend.pinned("fine.out")
    assert runner.backend.pinned("values.bin")


def test_second_round_hits_the_cache():
    runner = DagRunner(das4_cluster(nodes=2), config=config())
    dag = block_sum_dag()
    first = runner.run(dag)
    second = runner.run(dag)
    assert second.round == 2
    assert first.outputs == second.outputs
    r1, r2 = runner.stage_runs
    assert r1.cache_hit_bytes == 0 and r1.cache_miss_bytes > 0
    assert r2.cache_hit_bytes == r1.cache_miss_bytes
    assert r2.cache_miss_bytes == 0
    # Cached reads cost zero simulated time, so round two is faster.
    assert r2.elapsed < r1.elapsed


def test_content_change_reinstalls_and_invalidates():
    runner = DagRunner(das4_cluster(nodes=2), config=config())
    runner.run(block_sum_dag())

    changed = DAG("sums")
    data = rows().copy()
    data[:, 1] += 1
    changed.add_input("values.bin", data.tobytes())
    changed.add_stage("blocksum", PrefixBlockSumApp(BLOCK), ["values.bin"],
                      publish=lambda pairs: {"block_sums": dict(pairs)})
    result = runner.run(changed)
    want = {b: s + N // len(expected_block_sums())
            for b, s in expected_block_sums().items()}
    assert result.broadcast["block_sums"] == want
    # New content means the second round misses again.
    assert runner.stage_runs[1].cache_hit_bytes == 0
    assert runner.stage_runs[1].cache_miss_bytes > 0


def test_broadcast_seed_reaches_factories():
    seen = {}

    def factory(broadcast):
        seen.update(broadcast)
        return PrefixBlockSumApp(BLOCK)

    dag = DAG("probe")
    dag.add_input("values.bin", values_blob())
    dag.add_stage("probe", factory, ["values.bin"])
    runner = DagRunner(das4_cluster(nodes=2), config=config())
    result = runner.run(dag, broadcast={"round_state": 42})
    assert seen["round_state"] == 42
    assert result.broadcast["round_state"] == 42


def test_publish_must_return_dict():
    dag = DAG("bad")
    dag.add_input("values.bin", values_blob())
    dag.add_stage("s", PrefixBlockSumApp(BLOCK), ["values.bin"],
                  publish=lambda pairs: ["not", "a", "dict"])
    runner = DagRunner(das4_cluster(nodes=2), config=config())
    with pytest.raises(DagError, match="publish must return a"):
        runner.run(dag)


def test_faults_reject_unknown_stage():
    from repro.core.faults import FaultPlan
    runner = DagRunner(das4_cluster(nodes=2), config=config())
    with pytest.raises(DagError, match="unknown stages \\['ghost'\\]"):
        runner.run(block_sum_dag(), faults={"ghost": FaultPlan()})


def test_per_round_trace_lanes():
    runner = DagRunner(das4_cluster(nodes=2), config=config())
    dag = block_sum_dag()
    runner.run(dag)
    runner.run(dag)
    stage_spans = [s for s in runner.session.timeline.spans
                   if s.category == "dag.stage"]
    assert [s.name for s in stage_spans] == ["blocksum@r1", "blocksum@r2"]
    # Each round's job spans land in its own labelled lane.
    jobs = {s.meta.get("job") for s in runner.session.timeline.spans
            if s.meta.get("job")}
    assert {"blocksum@r1", "blocksum@r2"} <= jobs


def test_report_sections_per_round():
    runner = DagRunner(das4_cluster(nodes=2), config=config())
    result = runner.run(block_sum_dag())
    report = result.to_report()
    assert report["schema"] == "glasswing-dag-report/1"
    assert report["dag"] == "sums"
    (section,) = report["rounds"]
    assert section["stage"] == "blocksum"
    assert section["round"] == 1
    assert section["elapsed"] == pytest.approx(result.total_time)
    assert {"map_time", "merge_delay", "reduce_time", "network_bytes",
            "cache_hit_bytes", "cache_miss_bytes"} <= set(section)
    assert report["cache"]["hit_bytes"] == 0  # first round is all misses


def test_dfs_backend_rounds_account_network_per_round():
    runner = DagRunner(das4_cluster(nodes=4), config=config(storage="dfs"))
    dag = block_sum_dag()
    first = runner.run(dag)
    second = runner.run(dag)
    # Shuffle bytes are per-round (per-job meters), not cumulative.
    n1 = first.stage_runs[0].result.stats["network_bytes"]
    n2 = second.stage_runs[0].result.stats["network_bytes"]
    assert n1 > 0
    assert n2 <= n1


def test_runner_total_time_accumulates():
    runner = DagRunner(das4_cluster(nodes=2), config=config())
    dag = block_sum_dag()
    a = runner.run(dag).total_time
    b = runner.run(dag).total_time
    assert runner.total_time == pytest.approx(a + b)
    runner.close()  # telemetry stop is a no-op without metrics; no crash


def wordcount_round(active_nodes, stage_config=None):
    runner = DagRunner(das4_cluster(nodes=8),
                       config=JobConfig(chunk_size=4096, storage="dfs",
                                        active_nodes=active_nodes))
    dag = DAG("wc")
    dag.add_input("text", wiki_text(64 * 1024, seed=1))
    dag.add_stage("count", WordCountApp(), ["text"], config=stage_config)
    return runner.run(dag)


def test_dag_on_a_cluster_with_standbys_places_input_on_the_active_nodes():
    """Regression: the runner built its DFS without the initially-active
    set, so blocks landed on standby nodes no job could read from and
    the round died with ``every replica holder ... is dead``."""
    everyone = wordcount_round(None)
    two_active = wordcount_round(2)
    assert two_active.outputs["count"] == everyone.outputs["count"]
    assert len(two_active.outputs["count"]) == 569
    (run,) = two_active.stage_runs
    assert run.result.stats["leaked_buffer_slots"] == 0


def test_stage_active_nodes_must_match_the_runner():
    with pytest.raises(DagError, match="'count'.*active_nodes"):
        wordcount_round(2, stage_config=JobConfig(
            chunk_size=4096, storage="dfs", active_nodes=4))
    # "Every node", spelled as the count, is the same set.
    wordcount_round(None, stage_config=JobConfig(
        chunk_size=4096, storage="dfs", active_nodes=8))
