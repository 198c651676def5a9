"""The four workloads: set-up, one simulate call, its artefacts, its checks.

Every ``repro`` import happens *inside* :func:`prepare`, so that set-up can
be timed cold and repeated (see :func:`perf.harness.measure_setup`); the
returned :class:`Prepared` carries closures bound to those imports.

Seeds.  ``--seed 0`` reproduces the inputs of the repo's own benches
(generator seeds 42, 102, 103 and 7).  Any other seed gives the program
bytes it has not seen that *cost the same*: the same lines, records and
points in another order, moved so little that every split, partition and
job keeps its size (see the ``_permute_*`` functions).  The seed's job is
to defeat memoisation, not to draw another problem, and ``sim_elapsed_s``
is bounded at 2 %.  Measured across ten seeds before settling on this:
re-drawing ``wiki_text`` changes the input size itself (it sizes its
output from the unweighted vocabulary) and spread ``sim_elapsed_s`` of
``wc-datapath`` by 12.6 %; re-drawn TeraGen records by 4 % (the sampled
range partitioner's slowest reducer); a full shuffle of lines, or of job
bodies over the arrival slots, by 2.3 %.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

__all__ = ["Prepared", "prepare", "SCALES"]

KiB, MiB = 1024, 1024 * 1024

#: sizes per workload: the benchmark's, and the reduced ones --selftest
#: uses.  Small shuffle-storm keeps the N^2 event storm at 1 KiB a node and
#: sheds the pairs, so that it really bypasses KVSchema.size_of.
SCALES = {
    "full": {"ss_nodes": 128, "ss_per_node": 32 * KiB, "wc_bytes": 24 * MiB,
             "sort_records": 240_000, "svc_jobs": 200},
    "small": {"ss_nodes": 64, "ss_per_node": 1 * KiB, "wc_bytes": 2 * MiB,
              "sort_records": 20_000, "svc_jobs": 12},
}


@dataclasses.dataclass
class Prepared:
    """One workload, set up and ready to run."""

    name: str
    nodes: int
    #: run the program once; returns a GlasswingResult or ServiceResult
    simulate: Callable[[], Any]
    #: what a ``--report-json`` user gets from that result
    artefacts: Callable[[Any], str]
    #: (label, app, inputs) per job, for the reference computation
    jobs: List[Tuple[str, Any, Dict[str, bytes]]]
    #: job results of one simulate call, keyed like ``jobs``
    job_results: Callable[[Any], Dict[str, Any]]
    #: simulated statistics that must not differ between reps
    sim_stats: Callable[[Any], Dict[str, Any]]
    #: virtual seconds the run took
    sim_elapsed: Callable[[Any], float]
    #: seconds inside repro.apps.datagen (or JobRequest.materialize)
    datagen_s: float
    datagen_bytes: int
    materialize_s: float = 0.0


#: lines per window that a seed shuffles; small against any split
_WINDOW = 8


def _permute_lines(text: bytes, seed: int) -> bytes:
    """Same lines, shuffled within consecutive windows of ``_WINDOW``, so
    every split keeps its words but for a line or two at its edges; seed 0
    returns ``text`` itself."""
    if not seed:
        return text
    lines = text.split(b"\n")
    tail = lines.pop()          # b"" after the final newline
    rng = random.Random(seed)
    for i in range(0, len(lines), _WINDOW):
        window = lines[i:i + _WINDOW]
        rng.shuffle(window)
        lines[i:i + _WINDOW] = window
    lines.append(tail)
    return b"\n".join(lines)


def _permute_records(data: bytes, seed: int, record_len: int,
                     stride: int) -> bytes:
    """Same fixed-length records; within each run of ``stride`` the first
    stays put and the others are shuffled.  With ``stride`` the range
    partitioner's sampling step, the sample, the split points and so every
    reducer's load are those of seed 0; seed 0 returns ``data`` itself."""
    if not seed:
        return data
    records = np.frombuffer(data, dtype=np.uint8).reshape(-1, record_len)
    order = np.arange(len(records))
    rng = np.random.default_rng(seed)
    for start in range(0, len(records), stride):
        rng.shuffle(order[start + 1:start + stride])
    return records[order].tobytes()


def _permute_input(app, blob: bytes, seed: int, stride: int) -> bytes:
    """One input of ``app`` re-ordered by whichever of the two its record
    format calls for."""
    record_size = getattr(app.record_format, "record_size", None)
    if record_size is None:
        return _permute_lines(blob, seed)
    return _permute_records(blob, seed, record_size, stride)


def _job_artefacts(result) -> str:
    return json.dumps(result.to_report(), sort_keys=True)


def _job_sim_stats(result) -> Dict[str, Any]:
    stats = result.stats
    return {
        "job_time": result.job_time, "map_time": result.map_time,
        "merge_delay": result.merge_delay, "reduce_time": result.reduce_time,
        "network_bytes": stats["network_bytes"],
        "records_mapped": stats["records_mapped"],
        "pairs_emitted": stats["pairs_emitted"],
        "keys_reduced": stats["keys_reduced"],
        "sched_placements": stats["sched_placements"],
        "spans": len(result.timeline.spans),
        "wait_edges": len(result.timeline.waits),
    }


def _single_job(name: str, nodes: int, app, inputs, config, datagen_s: float
                ) -> Prepared:
    from repro.core import run_glasswing
    from repro.hw.presets import das4_cluster

    def simulate():
        return run_glasswing(app, inputs, das4_cluster(nodes=nodes), config)

    return Prepared(
        name=name, nodes=nodes, simulate=simulate, artefacts=_job_artefacts,
        jobs=[(name, app, inputs)],
        job_results=lambda result: {name: result},
        sim_stats=_job_sim_stats,
        sim_elapsed=lambda result: result.job_time,
        datagen_s=datagen_s,
        datagen_bytes=sum(len(v) for v in inputs.values()))


def _shuffle_storm(seed: int, scale: Dict[str, int]) -> Prepared:
    # repro.core first: importing repro.net.transport before it raises a
    # circular ImportError (known defect, see README).
    from repro.core import JobConfig
    from repro.apps import WordCountApp
    from repro.apps.datagen import wiki_text

    nodes, per_node = scale["ss_nodes"], scale["ss_per_node"]
    t0 = time.perf_counter()
    text = wiki_text(per_node * nodes, seed=42)
    datagen_s = time.perf_counter() - t0
    inputs = {"wiki": _permute_lines(text, seed)}
    config = JobConfig(chunk_size=per_node // 2, partitions_per_node=1,
                       scheduler="static-affinity")
    return _single_job("shuffle-storm", nodes, WordCountApp(), inputs, config,
                       datagen_s)


def _wc_datapath(seed: int, scale: Dict[str, int]) -> Prepared:
    from repro.core import JobConfig
    from repro.apps import WordCountApp
    from repro.apps.datagen import wiki_text

    t0 = time.perf_counter()
    text = wiki_text(scale["wc_bytes"], seed=102)
    datagen_s = time.perf_counter() - t0
    inputs = {"wiki": _permute_lines(text, seed)}
    config = JobConfig(chunk_size=192 * KiB, scheduler="static-affinity")
    return _single_job("wc-datapath", 4, WordCountApp(), inputs, config,
                       datagen_s)


def _sort_bulk(seed: int, scale: Dict[str, int]) -> Prepared:
    from repro.core import JobConfig
    from repro.apps import TeraSortApp
    from repro.apps.datagen import teragen
    from repro.apps.terasort import RECORD_LEN
    from repro.storage.records import NO_COMPRESSION

    sample_every = 499
    t0 = time.perf_counter()
    data = teragen(scale["sort_records"], seed=103)
    datagen_s = time.perf_counter() - t0
    data = _permute_records(data, seed, RECORD_LEN, sample_every)
    app = TeraSortApp.from_input(data, sample_every=sample_every)
    config = JobConfig(chunk_size=192 * KiB, output_replication=1,
                       compression=NO_COMPRESSION, collector="buffer",
                       use_combiner=False, cache_threshold=4 * MiB,
                       max_intermediate_files=8, scheduler="static-affinity")
    return _single_job("sort-bulk", 16, app, {"teragen": data}, config,
                       datagen_s)


def _service_replay(seed: int, scale: Dict[str, int]) -> Prepared:
    from repro.core import JobConfig
    from repro.hw.presets import das4_cluster
    from repro.service import (JobServer, JobSubmission, ServicePolicy,
                               synthetic_trace)

    nodes = 4
    rows = synthetic_trace(scale["svc_jobs"], seed=7, mean_interarrival=0.002)
    config = JobConfig(chunk_size=8 * KiB, partitions_per_node=1,
                       scheduler="static-affinity")
    t0 = time.perf_counter()
    submissions = []
    for row in rows:
        app, inputs, overrides = row.materialize()
        # 29: the step at which materialize() samples TeraSort keys
        inputs = {path: _permute_input(app, blob, seed, 29)
                  for path, blob in inputs.items()}
        submissions.append(JobSubmission(
            name=row.name, app=app, inputs=inputs,
            config=config.with_(**overrides) if overrides else None,
            tenant=row.tenant, priority=row.priority,
            submit_at=row.submit_at))
    materialize_s = time.perf_counter() - t0
    policy = ServicePolicy(queue_capacity=512, max_running=4,
                           arbiter="fair-share")

    def simulate():
        server = JobServer(das4_cluster(nodes=nodes), policy=policy,
                           config=config, metrics_interval=0.0005)
        for submission in submissions:
            server.submit(submission)
        return server.run()

    def sim_stats(result) -> Dict[str, Any]:
        return {
            "makespan": result.makespan,
            "counters": dict(result.counters),
            "peak_running": result.peak_running,
            "peak_queue_depth": result.peak_queue_depth,
            "finished_at": [r.finished_at for r in result.records],
            "spans": len(result.timeline.spans),
            "wait_edges": len(result.timeline.waits),
            "telemetry_samples": len(result.telemetry.samples),
        }

    return Prepared(
        name="service-replay", nodes=nodes, simulate=simulate,
        artefacts=lambda result: json.dumps(result.to_report(),
                                            sort_keys=True),
        jobs=[(s.name, s.app, s.inputs) for s in submissions],
        # A rejected or cancelled job has no result: the verifier counts
        # the missing key as a failed operation.
        job_results=lambda result: {r.name: r.result for r in result.records
                                    if r.outcome == "completed"},
        sim_stats=sim_stats,
        sim_elapsed=lambda result: result.makespan,
        datagen_s=materialize_s,
        datagen_bytes=sum(len(v) for s in submissions
                          for v in s.inputs.values()),
        materialize_s=materialize_s)


_BUILDERS = {
    "shuffle-storm": _shuffle_storm,
    "wc-datapath": _wc_datapath,
    "sort-bulk": _sort_bulk,
    "service-replay": _service_replay,
}


def prepare(name: str, seed: int, scale: str = "full") -> Prepared:
    """Generate the inputs of ``name`` from ``seed`` and build its apps."""
    return _BUILDERS[name](seed, SCALES[scale])


def output_digest(pairs: List[Tuple[Any, Any]]) -> str:
    """Stable hash of one job's canonical output."""
    h = hashlib.sha256()
    for key, value in pairs:
        if isinstance(value, tuple):         # k-means centre: float vector
            value = np.asarray(value, dtype=np.float64).tobytes()
        h.update(repr(key).encode())
        h.update(value if isinstance(value, bytes) else repr(value).encode())
    return h.hexdigest()
