"""Behavioural tests: the paper's §III/§IV claims hold on the real engine.

These run full Glasswing jobs and assert the *emergent* properties the
paper reports — pipeline overlap, buffering trade-offs, fine-grained
parallelism effects — not hard-coded constants.
"""

import pytest

from repro.apps import WordCountApp, KMeansApp
from repro.apps import datagen
from repro.core import JobConfig, run_glasswing
from repro.core.engine import ClusterSession, JobExecution
from repro.core.faults import FaultPlan, NodeCrash
from repro.hw.presets import das4_cluster
from repro.hw.specs import DeviceKind, MiB
from repro.ocl.runtime import OutOfDeviceMemory
from repro.service import JobServer, JobSubmission, ServicePolicy

CHUNK = 262_144


@pytest.fixture(scope="module")
def wc_inputs():
    return {"wiki": datagen.wiki_text(4_000_000, seed=21)}


def run_wc(wc_inputs, **overrides):
    cfg = JobConfig(chunk_size=CHUNK, storage="local", **overrides)
    return run_glasswing(WordCountApp(), wc_inputs, das4_cluster(nodes=1),
                         cfg)


def test_pipeline_overlap_elapsed_below_stage_sum(wc_inputs):
    """§IV-B.1: 'the total elapsed time is very close to the kernel
    execution time, which is the dominant pipeline stage' — the sum of
    stage times clearly exceeds the elapsed time."""
    res = run_wc(wc_inputs)
    m = res.metrics
    stage_sum = sum(m.breakdown("map", node="node0").values())
    assert stage_sum > 1.25 * res.map_time
    dominant = max(m.breakdown("map", node="node0").values())
    assert res.map_time <= 1.35 * dominant


def test_single_buffering_serializes_input_group(wc_inputs):
    """§IV-B.1: with single buffering 'the map elapsed time equals the
    sum of the input stage and the kernel stage'."""
    res = run_wc(wc_inputs, buffering=1)
    m = res.metrics
    bd = m.breakdown("map", node="node0")
    expected = bd["input"] + bd["kernel"]
    assert res.map_time == pytest.approx(expected, rel=0.2)


def test_double_buffering_faster_than_single(wc_inputs):
    single = run_wc(wc_inputs, buffering=1)
    double = run_wc(wc_inputs, buffering=2)
    assert double.map_time < single.map_time


def test_partitioning_in_single_buffer_mode_is_faster(wc_inputs):
    """Table II right column: 'Partitioning is faster because there is
    less contention for the CPU cores.'  (Exercised with the buffer-pool
    collector, whose partitioning stage is CPU-heavy enough to collide
    with the kernel threads.)"""
    single = run_wc(wc_inputs, buffering=1, collector="buffer",
                    use_combiner=False)
    double = run_wc(wc_inputs, buffering=2, collector="buffer",
                    use_combiner=False)
    p1 = single.metrics.stage_time("map", "output", "node0")
    p2 = double.metrics.stage_time("map", "output", "node0")
    assert p1 < p2


def test_buffer_collector_makes_partitioning_dominant(wc_inputs):
    """Table II config (iii): simple output collection lowers kernel time
    but partitioning 'vastly exceeds the kernel execution and becomes the
    dominant stage of the pipeline'."""
    hashed = run_wc(wc_inputs, collector="hash", use_combiner=True,
                    partitioner_threads=1)
    buffered = run_wc(wc_inputs, collector="buffer", use_combiner=False,
                      partitioner_threads=1)
    bh = hashed.metrics.breakdown("map", "node0")
    bb = buffered.metrics.breakdown("map", "node0")
    assert bb["kernel"] < bh["kernel"]          # kernel got cheaper
    assert bb["output"] > 2 * bh["output"]      # partitioning exploded
    assert bb["output"] > bb["kernel"]          # ... and dominates
    assert buffered.job_time > hashed.job_time  # net loss (paper's verdict)


def test_combiner_reduces_intermediate_and_reduce_time(wc_inputs):
    """Table II config (ii) vs (i): no combiner -> more intermediate data,
    larger partitioning time and reduce time."""
    with_c = run_wc(wc_inputs, use_combiner=True)
    without = run_wc(wc_inputs, use_combiner=False)
    assert without.stats["pairs_emitted"] > 2 * with_c.stats["pairs_emitted"]
    assert without.metrics.stage_time("map", "output", "node0") > \
        with_c.metrics.stage_time("map", "output", "node0")
    assert without.reduce_time > with_c.reduce_time


def test_partitioner_threads_shrink_partition_stage(wc_inputs):
    """Fig 4(a): partitioning drops below the kernel stage from N=2."""
    times = {}
    for n in (1, 2, 8):
        res = run_wc(wc_inputs, partitioner_threads=n, collector="hash",
                     use_combiner=False)
        times[n] = res.metrics.stage_time("map", "output", "node0")
    assert times[2] < times[1]
    assert times[8] < times[2]


def test_more_partitions_cut_merge_delay(wc_inputs):
    """Fig 4(b): increasing P sharply decreases the merge delay."""
    delays = {}
    for P in (1, 8):
        res = run_wc(wc_inputs, partitions_per_node=P,
                     cache_threshold=20_000, use_combiner=False)
        delays[P] = res.merge_delay
    assert delays[8] < delays[1]


def test_more_partitioner_threads_grow_merge_delay(wc_inputs):
    """Fig 4(b): increasing N increases the merge delay — the partitioner
    threads starve the mergers of CPU during the map phase (paper §IV-B.1
    observes this with the CPU-heavy partitioning of config (iii))."""
    res_few = run_wc(wc_inputs, partitioner_threads=2, partitions_per_node=1,
                     cache_threshold=1_000_000, use_combiner=False,
                     collector="buffer")
    res_many = run_wc(wc_inputs, partitioner_threads=32,
                      partitions_per_node=1, cache_threshold=1_000_000,
                      use_combiner=False, collector="buffer")
    assert res_many.merge_delay > res_few.merge_delay


def test_concurrent_keys_amortize_reduce_launches(wc_inputs):
    """Fig 5: one key per launch pays massive invocation overhead;
    processing many keys concurrently amortises it."""
    slow = run_wc(wc_inputs, concurrent_keys=1, keys_per_thread=1)
    fast = run_wc(wc_inputs, concurrent_keys=2048, keys_per_thread=4)
    assert fast.reduce_time < slow.reduce_time / 3


def test_gpu_frees_host_cores_for_partitioning():
    """Table III(b): partitioning time drops when kernels run on the GPU
    'because there is no contention on CPU resources by the kernel
    threads'."""
    pts = datagen.kmeans_points(60_000, 4, seed=22)
    app = KMeansApp(datagen.kmeans_centers(512, 4, seed=23))
    cfg = JobConfig(chunk_size=128 * 1024, storage="local",
                    partitioner_threads=4, use_combiner=False)
    cpu = run_glasswing(app, {"p": pts}, das4_cluster(nodes=1, gpu=True), cfg)
    gpu = run_glasswing(app, {"p": pts}, das4_cluster(nodes=1, gpu=True),
                        cfg.with_(device=DeviceKind.GPU))
    assert gpu.metrics.stage_time("map", "kernel", "node0") < \
        cpu.metrics.stage_time("map", "kernel", "node0")
    assert gpu.metrics.stage_time("map", "output", "node0") <= \
        cpu.metrics.stage_time("map", "output", "node0")


def test_gpu_stage_and_retrieve_active_cpu_disabled():
    pts = datagen.kmeans_points(20_000, 4, seed=24)
    app = KMeansApp(datagen.kmeans_centers(64, 4, seed=25))
    cfg = JobConfig(chunk_size=64 * 1024, storage="local")
    cpu = run_glasswing(app, {"p": pts}, das4_cluster(nodes=1, gpu=True), cfg)
    gpu = run_glasswing(app, {"p": pts}, das4_cluster(nodes=1, gpu=True),
                        cfg.with_(device=DeviceKind.GPU))
    assert cpu.metrics.stage_time("map", "stage", "node0") == 0.0
    assert gpu.metrics.stage_time("map", "stage", "node0") > 0.0
    assert gpu.metrics.stage_time("map", "retrieve", "node0") > 0.0


def test_triple_buffering_can_exhaust_gpu_memory():
    """§III-D: more buffers 'may be a limited resource for GPUs'."""
    pts = datagen.kmeans_points(1000, 4, seed=26)
    app = KMeansApp(datagen.kmeans_centers(16, 4, seed=27))
    cfg = JobConfig(chunk_size=300 * MiB, buffering=3,
                    device=DeviceKind.GPU, storage="local")
    with pytest.raises(OutOfDeviceMemory):
        run_glasswing(app, {"p": pts}, das4_cluster(nodes=1, gpu=True), cfg)


def _gpu_kmeans(seed):
    pts = datagen.kmeans_points(40_000, 4, seed=seed)
    app = KMeansApp(datagen.kmeans_centers(64, 4, seed=seed + 1))
    cfg = JobConfig(chunk_size=64 * 1024, storage="local",
                    device=DeviceKind.GPU)
    return app, {"p": pts}, cfg


def _run_gpu_kmeans(faults=None):
    session = ClusterSession(das4_cluster(nodes=4, gpu=True))
    app, inputs, cfg = _gpu_kmeans(seed=31)
    execution = JobExecution(session, app, inputs, config=cfg, faults=faults)
    # The map pipelines reserve their slot buffers at construction.
    assert all(dev.mem_used > 0 for dev in session._devices.values())
    execution.start()
    session.run()
    return session, execution.result()


@pytest.mark.parametrize("case", ["clean", "node-crash", "two-tenants"])
def test_device_memory_is_returned(case):
    """Every phase that reserves device buffers frees them: map and
    reduce phases, a crashed node's map phase and the recovery wave that
    re-executes its splits, and the jobs of a shared service session."""
    if case == "two-tenants":
        server = JobServer(das4_cluster(nodes=4, gpu=True),
                           policy=ServicePolicy(max_running=2))
        for n, seed in enumerate((31, 41)):
            app, inputs, cfg = _gpu_kmeans(seed)
            server.submit(JobSubmission(name=f"km{n}", app=app,
                                        inputs=inputs, config=cfg))
        result = server.run()
        assert result.peak_running == 2
        assert all(r.outcome == "completed" for r in result.records)
        session = server.session
    else:
        faults = None
        if case == "node-crash":
            _, clean = _run_gpu_kmeans()
            faults = FaultPlan(node_crashes=(
                NodeCrash(node=1, at=clean.map_time / 2),))
        session, res = _run_gpu_kmeans(faults)
        if faults is not None:
            assert res.stats["dead_nodes"] == [1]
            assert res.stats["reexecuted_splits"] >= 1
    devices = session._devices.values()
    assert {dev.spec.kind for dev in devices} == {DeviceKind.GPU}
    assert [dev.mem_used for dev in devices] == [0] * len(devices)


def test_local_storage_faster_than_hdfs(wc_inputs):
    """Fig 3(d) narrative: HDFS (JNI) costs real time vs the local FS."""
    local = run_wc(wc_inputs)
    dfs = run_glasswing(WordCountApp(), wc_inputs, das4_cluster(nodes=1),
                        JobConfig(chunk_size=CHUNK, storage="dfs"))
    assert local.job_time < dfs.job_time


def test_scaling_out_reduces_job_time(wc_inputs):
    one = run_glasswing(WordCountApp(), wc_inputs, das4_cluster(nodes=1),
                        JobConfig(chunk_size=CHUNK))
    four = run_glasswing(WordCountApp(), wc_inputs, das4_cluster(nodes=4),
                         JobConfig(chunk_size=CHUNK))
    assert four.job_time < one.job_time
    speedup = one.job_time / four.job_time
    assert 1.5 < speedup <= 4.5


@pytest.mark.parametrize("peers", [3, 15, 31])
def test_a_split_pushes_on_one_thread_per_peer(peers):
    """Each peer's message overhead runs on its own hardware thread: on an
    otherwise idle node, a split pushing to ``peers`` peers spends one
    ``push_overhead`` of CPU before its first send (the node's threads
    cap the aggregate), not ``peers`` of them — from one pusher process."""
    session = ClusterSession(das4_cluster(nodes=peers + 1))
    job = JobExecution(session, WordCountApp(),
                       {"wiki": datagen.wiki_text(16 * 1024, seed=5)},
                       config=JobConfig(chunk_size=64 * 1024,
                                        partitions_per_node=1))
    job.start()
    session.run()
    (phase,) = [mp for mp in job.map_phases if mp.push_procs]
    assert [p.name for p in phase.push_procs] == [f"{phase.node.name}.push.s0"]
    spans = job.timeline.spans
    (output,) = [s for s in spans if s.category == "map.output"]
    pushes = [s for s in spans if s.category == "map.push"]
    assert len(pushes) == peers
    threads = phase.node.cpu.capacity
    assert min(s.start for s in pushes) - output.end == pytest.approx(
        job.costs.push_overhead * max(1.0, peers / threads), rel=1e-9)
