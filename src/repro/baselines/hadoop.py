"""Hadoop 1.x-style MapReduce engine (the paper's primary baseline).

Coarse-grained execution, faithful to the behaviours the paper contrasts
Glasswing against:

* one JVM task per input split, scheduled into per-node **map slots**;
  each task runs *sequentially*: read split, then map, then sort/spill —
  no intra-task pipeline overlap (overlap only arises across slots);
* map/reduce functions pay a **JVM factor** relative to tuned OpenCL
  kernels, and every task pays a JVM startup cost;
* single-threaded sort/partition inside each task (no fine-grained
  parallelism);
* **pull-based shuffle**: reducers fetch map-output segments after the
  slow-start threshold, one fetch per (map task x reducer) with per-fetch
  overhead — versus Glasswing's push;
* reducers process keys sequentially; output written with replication.

Speculative execution is disabled (as the paper configures) and the
scheduler is data-local first, mirroring "we ensured that the Hadoop
executions are well load-balanced".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.hw.node import Cluster
from repro.hw.specs import ClusterSpec, MiB
from repro.simt.core import Event, Simulator
from repro.simt.trace import Timeline

from repro.core.api import MapReduceApp
from repro.core.coordinator import Split, make_splits
from repro.core.costs import DEFAULT_HOST_COSTS, HostCosts, sort_seconds
from repro.core.sched.affinity import affinity_assign
from repro.core.splitread import read_split_records
from repro.storage.backend import make_backend
from repro.storage.records import CompressionModel

__all__ = ["HadoopConfig", "HadoopResult", "run_hadoop"]

Pair = Tuple[Any, Any]


@dataclass(frozen=True)
class HadoopConfig:
    """Hadoop job/site configuration (scaled defaults; see EXPERIMENTS.md)."""

    map_slots: Optional[int] = None       # per node; default = hw threads
    reduce_slots: int = 2                 # per node (typical tuned Hadoop 1.x)
    chunk_size: int = 16 * MiB            # split = HDFS block size
    # Scaled from the physical ~1.5 s: jobs here run ~1/1000 of the
    # paper's data, so fixed per-task costs are scaled with them (same
    # rationale as the disk seek_time preset; see EXPERIMENTS.md).
    jvm_startup: float = 0.005            # task launch cost, seconds
    # Scalar 2014-era Java (no autovectorisation, bounds checks, boxing)
    # against hand-tuned OpenCL C on the same cores.
    jvm_factor: float = 3.0               # Java vs tuned-OpenCL compute ratio
    slowstart: float = 0.5                # fraction of maps done before fetch
    # Scaled like jvm_startup (real Hadoop pulls MB-sized segments; the
    # scaled run pulls KB-sized ones).
    fetch_overhead: float = 50e-6         # per map-segment pull
    parallel_copies: int = 5              # mapred.reduce.parallel.copies
    # TaskTracker heartbeat (scaled from Hadoop 1.x's ~3 s): locality is
    # relaxed only after a heartbeat with no local work.
    heartbeat: float = 3e-3
    # Speculative execution of in-flight map tasks by idle slots.  The
    # paper disables it ("Hadoop was configured to disable redundant
    # speculative computation, since the DAS cluster is extremely
    # stable"), so the default matches; the mechanism exists for
    # completeness and is covered by tests.
    speculative: bool = False
    use_combiner: bool = True
    compression: CompressionModel = field(default_factory=CompressionModel)
    output_replication: int = 3
    input_replication: int = 3

    def __post_init__(self) -> None:
        if not (0.0 <= self.slowstart <= 1.0):
            raise ValueError("slowstart must be within [0, 1]")
        if self.jvm_factor < 1.0:
            raise ValueError("jvm_factor below 1 would beat tuned kernels")


@dataclass
class HadoopResult:
    """Outcome of one Hadoop job."""

    app_name: str
    n_nodes: int
    job_time: float
    map_phase_time: float       # until the last map task finished
    shuffle_wait: float         # reducers' post-map fetch/merge tail
    output: Dict[int, List[Pair]]
    timeline: Timeline
    stats: Dict[str, Any] = field(default_factory=dict)

    def output_pairs(self):
        for pid in sorted(self.output):
            yield from self.output[pid]


@dataclass
class _MapOutputSegment:
    """One reducer's slice of one finished map task's output."""

    pairs: List[Pair]
    stored_bytes: int
    raw_bytes: int


class _HadoopJob:
    """Shared state of one running job."""

    def __init__(self, sim: Simulator, cluster: Cluster, app: MapReduceApp,
                 config: HadoopConfig, backend, timeline: Timeline,
                 splits: List[Split], costs: HostCosts):
        self.sim = sim
        self.cluster = cluster
        self.app = app
        self.config = config
        self.backend = backend
        self.timeline = timeline
        self.costs = costs
        n = len(cluster)
        self.map_slots = config.map_slots or cluster[0].spec.hw_threads
        self.reduce_slots = config.reduce_slots
        self.n_reducers = n * self.reduce_slots
        # Task queue: data-local first via the shared affinity assigner.
        self.pending: Dict[int, List[Split]] = affinity_assign(splits, backend, n)
        self.total_maps = len(splits)
        self.maps_done = 0
        self.map_phase_end: Optional[float] = None
        self._slowstart_evt = Event(sim)
        # segments[reducer][...] grows as map tasks finish.
        self.segments: Dict[int, List[Tuple[int, _MapOutputSegment]]] = {
            r: [] for r in range(self.n_reducers)}
        self._seg_waiters: Dict[int, Optional[Event]] = {
            r: None for r in range(self.n_reducers)}
        # Speculation bookkeeping: in-flight attempts and finished splits.
        self.running: Dict[int, Tuple[Split, float]] = {}
        self.completed: set = set()
        self.stats = {"map_tasks": 0, "fetches": 0, "spilled_bytes": 0,
                      "speculative_attempts": 0, "speculative_wasted": 0}

    # -- split scheduling -------------------------------------------------
    def take_local_split(self, node_id: int) -> Optional[Split]:
        """Next data-local split for a free slot on ``node_id``."""
        if self.pending[node_id]:
            return self.pending[node_id].pop(0)
        return None

    def steal_split(self) -> Optional[Split]:
        """Non-local assignment from the most loaded node's queue.

        Only consulted after a heartbeat with no local work (so a fast
        node cannot vacuum the whole cluster's queue at t=0 before the
        other TaskTrackers have even reported in)."""
        donor = max(self.pending, key=lambda nid: len(self.pending[nid]))
        if self.pending[donor]:
            return self.pending[donor].pop(0)
        return None

    def splits_remaining(self) -> bool:
        return any(self.pending.values())

    def speculation_candidate(self) -> Optional[Split]:
        """Longest-running in-flight map attempt, for an idle slot."""
        if not self.config.speculative or not self.running:
            return None
        index = min(self.running, key=lambda i: self.running[i][1])
        return self.running[index][0]

    # -- map completion bookkeeping ------------------------------------------
    def map_finished(self, map_index: int,
                     per_reducer: Dict[int, _MapOutputSegment]) -> bool:
        """Register a finished attempt; returns False for a duplicate
        (a speculative attempt that lost the race — discarded)."""
        if map_index in self.completed:
            self.stats["speculative_wasted"] += 1
            return False
        self.completed.add(map_index)
        self.running.pop(map_index, None)
        for reducer, seg in per_reducer.items():
            self.segments[reducer].append((map_index, seg))
        # Wake every waiting reducer: even one that received no segment
        # must recheck, since maps_done advanced (it may be done pulling).
        for reducer, waiter in self._seg_waiters.items():
            if waiter is not None and not waiter.triggered:
                waiter.succeed(None)
                self._seg_waiters[reducer] = None
        self.maps_done += 1
        if (self.maps_done >= self.config.slowstart * self.total_maps
                and not self._slowstart_evt.triggered):
            self._slowstart_evt.succeed(None)
        if self.maps_done == self.total_maps:
            self.map_phase_end = self.sim.now
            if not self._slowstart_evt.triggered:
                self._slowstart_evt.succeed(None)
        return True

    def wait_slowstart(self) -> Event:
        """Event fired once the slow-start fraction of maps completed."""
        return self._slowstart_evt

    def wait_segments(self, reducer: int, have: int) -> Event:
        """Event that fires when reducer has more than ``have`` segments."""
        ev = Event(self.sim)
        if len(self.segments[reducer]) > have or self.maps_done == self.total_maps:
            ev.succeed(None)
        else:
            self._seg_waiters[reducer] = ev
        return ev


def run_hadoop(app: MapReduceApp, inputs: Dict[str, bytes],
               cluster_spec: ClusterSpec,
               config: Optional[HadoopConfig] = None,
               costs: HostCosts = DEFAULT_HOST_COSTS) -> HadoopResult:
    """Run one Hadoop job on a fresh simulated cluster."""
    config = config or HadoopConfig()
    sim = Simulator()
    timeline = Timeline()
    cluster = Cluster(sim, cluster_spec, timeline=timeline)
    n = len(cluster)
    backend = make_backend("dfs", cluster, block_size=config.chunk_size,
                           replication=config.input_replication)
    for path, data in inputs.items():
        backend.install(path, data)
    backend.purge_caches()
    splits = make_splits(backend, sorted(inputs), config.chunk_size,
                         record_size=app.record_format.record_size)
    job = _HadoopJob(sim, cluster, app, config, backend, timeline, splits,
                     costs)

    outputs: Dict[int, List[Pair]] = {}
    procs = []
    for node_id in range(n):
        for slot in range(job.map_slots):
            procs.append(sim.process(
                _map_slot(job, node_id), name=f"map-slot-{node_id}.{slot}"))
    for reducer in range(job.n_reducers):
        node_id = reducer % n
        procs.append(sim.process(
            _reduce_task(job, reducer, node_id, outputs),
            name=f"reduce-{reducer}"))

    done = {}

    def driver():
        yield sim.all_of(procs)
        done["t"] = sim.now

    sim.process(driver(), name="hadoop-driver")
    sim.run()

    map_phase_time = job.map_phase_end if job.map_phase_end is not None else 0.0
    return HadoopResult(
        app_name=app.name, n_nodes=n, job_time=done["t"],
        map_phase_time=map_phase_time,
        shuffle_wait=done["t"] - map_phase_time,
        output=outputs, timeline=timeline, stats=job.stats)


# --------------------------------------------------------------- map side
def _map_slot(job: _HadoopJob, node_id: int) -> Generator:
    """One map slot: run map tasks until no splits remain."""
    sim = job.sim
    node = job.cluster[node_id]
    cfg = job.config
    app = job.app
    cpu_spec = node.spec.cpu_device
    speculated: set = set()
    while True:
        split = job.take_local_split(node_id)
        if split is None:
            if not job.splits_remaining():
                # Out of fresh work: optionally speculate on stragglers.
                candidate = job.speculation_candidate()
                if candidate is None or candidate.index in speculated \
                        or candidate.index in job.completed:
                    return
                speculated.add(candidate.index)
                job.stats["speculative_attempts"] += 1
                split = candidate
            else:
                # No local work: wait one heartbeat, then accept a
                # non-local assignment (the JobTracker relaxes locality
                # over time).
                yield sim.timeout(cfg.heartbeat)
                split = job.steal_split()
                if split is None:
                    continue
        if split.index not in job.running:
            job.running[split.index] = (split, sim.now)
        start = sim.now
        job.stats["map_tasks"] += 1
        # JVM startup (one core busy while the task JVM spins up).
        yield node.host_work(1, cfg.jvm_startup)
        # 1. Read the split — sequential, before any computation.
        records, nbytes = yield from read_split_records(
            job.backend, node_id, split, app.record_format)
        # 2. Map function, single-threaded Java.
        pairs = app.map_batch(records)
        kernel_cost = app.map_cost(cpu_spec, len(records), nbytes)
        work = (kernel_cost.roofline_on(cpu_spec) * cpu_spec.compute_units
                * cfg.jvm_factor)
        yield node.host_work(1, work)
        # 3. Combine (map-side aggregation), single-threaded.
        if cfg.use_combiner and app.has_combiner:
            combined = app.run_combine(pairs)
            comb_cost = app.combine_cost(cpu_spec, len(pairs))
            yield node.host_work(
                1, comb_cost.roofline_on(cpu_spec) * cpu_spec.compute_units
                * cfg.jvm_factor)
            pairs = combined
        # 4. Partition + sort + spill to local disk, single-threaded.
        per_reducer: Dict[int, List[Pair]] = {}
        for pair in pairs:
            r = app.partition(pair[0], job.n_reducers)
            per_reducer.setdefault(r, []).append(pair)
        raw = app.inter_schema.size_of(pairs)
        cpu = (job.costs.decode_seconds(len(pairs), raw)
               + sort_seconds(job.costs, len(pairs))
               + cfg.compression.compress_seconds(raw))
        yield node.host_work(1, cpu)
        stored = cfg.compression.compressed_size(raw)
        yield from node.disk.write(stored, stream=f"spill-{split.index}")
        job.stats["spilled_bytes"] += stored
        segments = {}
        for r, rpairs in per_reducer.items():
            rpairs.sort(key=lambda kv: app.sort_key(kv[0]))
            rraw = app.inter_schema.size_of(rpairs)
            segments[r] = _MapOutputSegment(
                pairs=rpairs, raw_bytes=rraw,
                stored_bytes=cfg.compression.compressed_size(rraw))
        job.timeline.record("hadoop.map_task", node.name, start, sim.now,
                            split=split.index)
        job.map_finished(split.index, segments)


# -------------------------------------------------------------- reduce side
def _reduce_task(job: _HadoopJob, reducer: int, node_id: int,
                 outputs: Dict[int, List[Pair]]) -> Generator:
    """One reduce task: pull, merge, reduce, write."""
    sim = job.sim
    node = job.cluster[node_id]
    cfg = job.config
    app = job.app
    cpu_spec = node.spec.cpu_device
    yield job.wait_slowstart()
    fetched: List[_MapOutputSegment] = []
    fetched_from = 0

    def fetch_one(map_index: int, seg: _MapOutputSegment) -> Generator:
        src = _map_node_of(job, map_index)
        start = sim.now
        yield node.host_work(1, cfg.fetch_overhead)
        if src != node_id:
            # Serve from the mapper's spill disk, then cross the wire.
            yield from job.cluster[src].disk.read(seg.stored_bytes,
                                                  stream="shuffle-serve")
            yield from job.cluster.network.send(src, node_id,
                                                seg.stored_bytes)
        else:
            yield from node.disk.read(seg.stored_bytes,
                                      stream="shuffle-serve")
        job.stats["fetches"] += 1
        job.timeline.record("hadoop.fetch", node.name, start, sim.now,
                            reducer=reducer)
        fetched.append(seg)

    # Pull loop: fetch published segments, ``parallel_copies`` at a time.
    while True:
        available = job.segments[reducer]
        while fetched_from < len(available):
            wave = available[fetched_from:fetched_from + cfg.parallel_copies]
            fetched_from += len(wave)
            yield sim.all_of([
                sim.process(fetch_one(mi, seg),
                            name=f"copier-{reducer}-{mi}")
                for mi, seg in wave])
        if job.maps_done == job.total_maps and \
                fetched_from == len(job.segments[reducer]):
            break
        yield job.wait_segments(reducer, fetched_from)
    # Merge-sort the fetched segments, single-threaded.
    all_pairs: List[Pair] = []
    for seg in fetched:
        all_pairs.extend(seg.pairs)
    raw = sum(seg.raw_bytes for seg in fetched)
    cpu = (cfg.compression.decompress_seconds(raw)
           + sort_seconds(job.costs, len(all_pairs)))
    yield node.host_work(1, cpu)
    all_pairs.sort(key=lambda kv: app.sort_key(kv[0]))
    # Reduce sequentially per key.
    out_pairs: List[Pair] = []
    if app.map_only_output:
        out_pairs = all_pairs
    else:
        import itertools as _it
        n_values = len(all_pairs)
        groups = [(k, [v for _, v in grp]) for k, grp in
                  _it.groupby(all_pairs, key=lambda kv: kv[0])]
        base = app.reduce_cost(cpu_spec, len(groups), n_values)
        work = (base.roofline_on(cpu_spec) * cpu_spec.compute_units
                * cfg.jvm_factor)
        yield node.host_work(1, work)
        for key, values in groups:
            out_pairs.extend(app.reduce(key, values))
    nbytes = app.output_schema.size_of(out_pairs)
    yield from job.backend.write_chunk(node_id, nbytes,
                                       cfg.output_replication)
    outputs[reducer] = out_pairs


def _map_node_of(job: _HadoopJob, map_index: int) -> int:
    """Node that ran a map task — recovered from the task trace."""
    for span in job.timeline.by_category("hadoop.map_task"):
        if span.meta.get("split") == map_index:
            return int(span.name.removeprefix("node"))
    raise KeyError(f"map task {map_index} not finished")
