"""The traced pass: per-layer counts, self times and isolated replays.

One rep runs with :class:`perf.tracer.Tracer` wrappers around the public
callables at each layer boundary; the wrappers are then removed and the
arguments they captured are *replayed* against each layer alone (a bare
``Simulator`` + ``Network``, ``collect_map_output`` on the captured
batches, ``KVSchema.size_of`` on the captured pair lists), which prices a
layer without the rest of the program around it.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from perf.harness import (Timing, Verifier, own_heap_frozen, timed_region,
                          timed_reps)
from perf.spec import PER_LAYER
from perf.tracer import Patcher, Tracer
from perf.workloads import Prepared

__all__ = ["traced_rep", "traced_pass", "layer_metrics", "Captured"]

_clock = time.perf_counter

#: pairs kept for the collector / size_of replays (references only; the
#: cap bounds what the traced rep keeps alive, not what it counts)
_REPLAY_PAIR_CAP = 250_000


class Captured:
    """Arguments and counts the wrappers collected during one rep."""

    def __init__(self) -> None:
        self.network: Any = None
        self.sends: List[Tuple[int, int, int]] = []
        self.net_bytes = 0
        self.collector_calls: List[tuple] = []
        self.collector_kept = 0
        self.pairs_in = 0
        self.pairs_out = 0
        self.sized: List[Tuple[Any, list]] = []
        self.sized_kept = 0
        self.pairs_sized = 0


def _install(tracer: Tracer, patcher: Patcher, cap: Captured,
             prepared: Prepared) -> None:
    """Wrap the layer boundaries.  Imports are local: the benchmark must
    see whichever ``repro`` modules the last cold set-up left loaded."""
    from repro.core import collector
    from repro.core.engine import ClusterSession, JobExecution
    from repro.net.transport import Network
    from repro.obs.telemetry import Telemetry
    from repro.service import JobServer
    from repro.simt.core import Simulator
    from repro.simt.resources import Resource
    from repro.simt.trace import Timeline, TimelineFork
    from repro.storage.records import KVSchema

    # simt: run() is nothing but `while heap: step()`, so its self time
    # *is* the self time of all steps (event dispatch plus the generator
    # bodies they resume); step itself is only counted, which halves the
    # price of the hottest boundary.
    patcher.method(Simulator, "run", tracer.coarse("simt.run"))
    patcher.method(Simulator, "step",
                   tracer.counted("simt.step", self_only=True))
    patcher.method(Resource, "acquire", tracer.counted("simt.acquire"))

    # net: send() is a generator function — its body runs inside
    # Simulator.step, so only the call is counted and its arguments kept.
    def on_send(args, _result):
        net, src, dst, nbytes = args[:4]
        cap.network = net
        cap.sends.append((src, dst, nbytes))
        cap.net_bytes += nbytes
    patcher.method(Network, "send", tracer.counted("net.send", on_send))

    # core.collector
    def on_collect(args, result):
        pairs = args[3]
        cap.pairs_in += len(pairs)
        cap.pairs_out += len(result[0].pairs)
        if cap.collector_kept < _REPLAY_PAIR_CAP:
            cap.collector_kept += len(pairs)
            cap.collector_calls.append(args[:6])
    patcher.function(collector.collect_map_output,
                     tracer.timed("collector.collect", on_collect))

    # storage.records: size_of is the hot function (encode_pairs and
    # decode_pairs have no caller in src/).  Unsized iterables are counted
    # as they stream through.
    original_size_of = KVSchema.size_of

    def counting_size_of(schema, pairs):
        if hasattr(pairs, "__len__"):
            cap.pairs_sized += len(pairs)
            if cap.sized_kept < _REPLAY_PAIR_CAP and len(pairs):
                cap.sized_kept += len(pairs)
                cap.sized.append((schema, pairs))
            return original_size_of(schema, pairs)

        def counted():
            n = 0
            for pair in pairs:
                n += 1
                yield pair
            cap.pairs_sized += n
        return original_size_of(schema, counted())
    patcher.method(KVSchema, "size_of",
                   lambda fn: tracer.timed("records.size_of")(
                       counting_size_of))

    # apps: per-batch kernels timed, the per-key reduce only counted
    for app_cls in {type(app) for _, app, _ in prepared.jobs}:
        patcher.method(app_cls, "map_batch", tracer.timed("apps.map"))
        patcher.method(app_cls, "run_combine", tracer.timed("apps.combine"))
        patcher.method(app_cls, "reduce", tracer.counted("apps.reduce"))

    # obs: span recording and telemetry sampling are timed.  record_wait
    # is only counted: most calls carry a zero-length wait and return at
    # once, so a timing wrapper would cost three times what it measured.
    for cls in (Timeline, TimelineFork):
        patcher.method(cls, "record", tracer.timed("obs.record"))
        patcher.method(cls, "record_wait", tracer.counted("obs.record_wait"))
    patcher.method(Telemetry, "sample", tracer.timed("obs.telemetry"))

    # engine / service: coarse boundaries, kept as spans
    patcher.method(ClusterSession, "__init__",
                   tracer.coarse("engine.session_init"))
    patcher.method(JobExecution, "__init__", tracer.coarse("engine.job_init"))
    patcher.method(JobExecution, "result", tracer.coarse("engine.result"))
    patcher.method(JobServer, "submit", tracer.coarse("service.submit"))


def traced_rep(prepared: Prepared, verifier: Verifier
               ) -> "tuple[Tracer, Captured, Timing, Any]":
    """Run one rep under the wrappers; returns the traced wall time and
    the (verified) result, wrappers already removed."""
    tracer, cap, patcher = Tracer(), Captured(), Patcher()
    _install(tracer, patcher, cap, prepared)
    try:
        with own_heap_frozen(), timed_region() as region:
            with tracer.span("rep"):
                result = prepared.simulate()
    finally:
        patcher.restore()
    verifier.check(result)
    return tracer, cap, region.timing(), result


def traced_pass(prepared: Prepared, verifier: Verifier,
                seconds: Optional[float]
                ) -> "tuple[tuple, List[Timing], List[Timing]]":
    """Untraced and traced reps, alternating so that drift in machine
    speed lands on both sides of ``trace.overhead_ratio``: two pairs, or
    as many as fit in half of ``seconds``.  Returns the last traced rep
    (as :func:`traced_rep` does), every traced wall and every untraced
    wall."""
    untraced: List[Timing] = []
    traced: List[Timing] = []
    last = None
    started = _clock()
    while len(traced) < 2 or (seconds is not None
                              and _clock() - started < seconds / 2):
        untraced.append(timed_reps(prepared, verifier, None, 1)[0].wall)
        last = None         # free the previous traced result first
        last = traced_rep(prepared, verifier)
        traced.append(last[2])
    return last, traced, untraced


# ------------------------------------------------------------------- replays
def _bare_us_per_event(events: int, procs: int) -> float:
    """The event loop alone: ``events`` bare timeouts over ``procs``
    processes on a fresh Simulator."""
    from repro.simt.core import Simulator
    sim = Simulator()
    per_proc = max(1, events // max(1, procs))

    def ticker():
        for _ in range(per_proc):
            yield sim.timeout(1.0)

    for _ in range(procs):
        sim.process(ticker())
    with own_heap_frozen():
        t0 = _clock()
        sim.run()
        dt = _clock() - t0
    return dt / (per_proc * procs) * 1e6


def _replay_sends(cap: Captured) -> float:
    """The captured (src, dst, nbytes) list against a bare Simulator +
    Network: one sender process per source, messages back to back."""
    if not cap.sends:
        return 0.0
    from repro.net.transport import Network
    from repro.simt.core import Simulator
    sim = Simulator()
    net = Network(sim, cap.network.spec, cap.network.n_nodes)
    by_src: Dict[int, List[Tuple[int, int]]] = {}
    for src, dst, nbytes in cap.sends:
        by_src.setdefault(src, []).append((dst, nbytes))

    def sender(src, messages):
        for dst, nbytes in messages:
            yield from net.send(src, dst, nbytes)

    with own_heap_frozen():
        t0 = _clock()
        for src, messages in by_src.items():
            sim.process(sender(src, messages))
        sim.run()
        dt = _clock() - t0
    return dt / len(cap.sends) * 1e6


def _replay_collector(cap: Captured) -> float:
    if not cap.collector_calls:
        return 0.0
    from repro.core.collector import KeyInterner, collect_map_output
    pairs = sum(len(call[3]) for call in cap.collector_calls)
    interner = KeyInterner()
    with own_heap_frozen():
        t0 = _clock()
        for name, app, device, batch, use_combiner, index in \
                cap.collector_calls:
            collect_map_output(name, app, device, batch, use_combiner, index,
                               interner=interner if name == "hash" else None)
        dt = _clock() - t0
    return dt / max(1, pairs) * 1e9


def _replay_size_of(cap: Captured) -> float:
    if not cap.sized:
        return 0.0
    pairs = sum(len(batch) for _, batch in cap.sized)
    with own_heap_frozen():
        t0 = _clock()
        for schema, batch in cap.sized:
            schema.size_of(batch)
        dt = _clock() - t0
    return dt / max(1, pairs) * 1e9


def _timed(fn) -> float:
    with own_heap_frozen():
        t0 = _clock()
        fn()
        return _clock() - t0


# ------------------------------------------------------------------- metrics
def _job_sums(prepared: Prepared, result: Any) -> Dict[str, float]:
    jobs = list(prepared.job_results(result).values())
    stats = [job.stats for job in jobs]
    hits = sum(s["sched_locality_hits"] for s in stats)
    misses = sum(s["sched_locality_misses"] for s in stats)
    return {
        "engine.records_mapped": sum(s["records_mapped"] for s in stats),
        "engine.pairs_emitted": sum(s["pairs_emitted"] for s in stats),
        "engine.keys_reduced": sum(s["keys_reduced"] for s in stats),
        "engine.leaked_buffer_slots": sum(s["leaked_buffer_slots"]
                                          for s in stats),
        "engine.sim_map_s": sum(job.map_time for job in jobs),
        "engine.sim_merge_delay_s": sum(job.merge_delay for job in jobs),
        "engine.sim_reduce_s": sum(job.reduce_time for job in jobs),
        "sched.placements": sum(s["sched_placements"] for s in stats),
        "sched.locality_hit_rate": (hits / (hits + misses)
                                    if hits + misses else 0.0),
    }


def layer_metrics(prepared: Prepared, last_traced: tuple,
                  traced_walls: List[Timing], untraced_walls: List[Timing],
                  gc_meter, env: Dict[str, Any],
                  sim_digest: int) -> Dict[str, float]:
    """Every per-layer metric of ``perf.spec.PER_LAYER`` for one workload
    (metrics of a layer the workload does not exercise are 0)."""
    tracer, cap, last_wall, result = last_traced
    from repro.obs import (PipelineReport, aggregate_counters, causal_profile,
                           to_chrome_trace)

    timeline = result.timeline
    elapsed = prepared.sim_elapsed(result)
    wall = statistics.median(t.raw_s for t in untraced_walls)
    events = tracer.calls("simt.step")
    bare_us = _bare_us_per_event(events, prepared.nodes)
    step_self = tracer.self_s("simt.run")
    map_report = PipelineReport(timeline, "map")
    dominant = map_report.dominant_stage
    named_self = sum(s for name, (_, _, s) in tracer.agg.items()
                     if name != "rep")
    telemetry = getattr(result, "telemetry", None)
    service = hasattr(result, "records")

    m: Dict[str, float] = {
        "simt.events": events,
        "simt.resource_acquires": tracer.calls("simt.acquire"),
        "simt.step_self_s": step_self,
        "simt.us_per_event": wall / max(1, events) * 1e6,
        "simt.bare_us_per_event": bare_us,
        "net.sends": tracer.calls("net.send"),
        "net.bytes": cap.net_bytes,
        "net.replay_us_per_send": _replay_sends(cap),
        "net.sim_wait_s": aggregate_counters(timeline)["net_wait_seconds"],
        "collector.calls": tracer.calls("collector.collect"),
        "collector.pairs_in": cap.pairs_in,
        "collector.pairs_out": cap.pairs_out,
        "collector.self_s": tracer.self_s("collector.collect"),
        "collector.replay_ns_per_pair": _replay_collector(cap),
        "records.size_of_calls": tracer.calls("records.size_of"),
        "records.pairs_sized": cap.pairs_sized,
        "records.self_s": tracer.self_s("records.size_of"),
        "records.replay_ns_per_pair": _replay_size_of(cap),
        "apps.map_calls": tracer.calls("apps.map"),
        "apps.map_self_s": tracer.self_s("apps.map"),
        "apps.combine_self_s": tracer.self_s("apps.combine"),
        "apps.reduce_calls": tracer.calls("apps.reduce"),
        "datagen.setup_s": prepared.datagen_s,
        "datagen.mb_per_s": (prepared.datagen_bytes / 1e6
                             / max(prepared.datagen_s, 1e-9)),
        "engine.map_overlap_factor": map_report.overlap_factor,
        "engine.map_dominant_share": (
            map_report.utilization().get(dominant, 0.0) if dominant else 0.0),
        # Generator bodies of map_phase / reduce_phase / pipeline /
        # intermediate / hw run inside Simulator.step and no outside
        # wrapper can split them further: step self time minus what the
        # same number of bare events costs.
        "engine.residual_s": step_self - events * bare_us * 1e-6,
        "storage.sim_disk_read_s": timeline.busy_time("disk.read"),
        "storage.sim_disk_write_s": timeline.busy_time("disk.write"),
        "obs.spans": len(timeline.spans),
        "obs.wait_edges": len(timeline.waits),
        "obs.record_self_s": tracer.self_s("obs.record"),
        "obs.telemetry_samples": (len(telemetry.samples)
                                  if telemetry is not None else 0),
        "obs.telemetry_self_s": tracer.self_s("obs.telemetry"),
        "obs.to_report_s": _timed(lambda: prepared.artefacts(result)),
        "obs.causal_profile_s": _timed(
            lambda: causal_profile(timeline, elapsed_s=elapsed)),
        "obs.pipeline_report_s": _timed(
            lambda: [PipelineReport(timeline, phase).to_dict()
                     for phase in ("map", "reduce")]),
        "obs.chrome_export_s": _timed(
            lambda: json.dumps(to_chrome_trace(timeline))),
        "service.jobs_completed": 0, "service.sim_jobs_per_s": 0.0,
        "service.sim_latency_p50_s": 0.0, "service.sim_latency_p95_s": 0.0,
        "service.peak_queue_depth": 0,
        "service.submit_s": tracer.total_s("service.submit"),
        "service.materialize_s": prepared.materialize_s,
        # Each traced rep against the untraced rep run just before it: the
        # two share whatever state the machine was in.
        "trace.overhead_ratio": statistics.median(
            t.seconds / u.seconds
            for t, u in zip(traced_walls, untraced_walls)),
        "trace.attributed_share": named_self / last_wall.raw_s,
        "host.gc_s": gc_meter.seconds,
        "host.gc_collections": gc_meter.collections,
        "host.calib_s": env["host.calib_s"],
        "host.loadavg1": env["host.loadavg1"],
        "sim_digest": sim_digest,
    }
    m.update(_job_sums(prepared, result))
    if service:
        latency = result.latency_percentiles()
        m.update({
            "service.jobs_completed": result.counters["completed"],
            "service.sim_jobs_per_s": result.throughput,
            "service.sim_latency_p50_s": latency["p50"],
            # 200 completed jobs: ten samples lie beyond p95, none beyond p99
            "service.sim_latency_p95_s": latency["p95"],
            "service.peak_queue_depth": result.peak_queue_depth,
        })
    return {name: m[name] for name in PER_LAYER}
