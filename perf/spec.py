"""What the benchmark measures: workloads, metrics, labels and the map
from each layer metric to the end-to-end metric it should move.

``BENCHMARK.json`` (repo root) is the machine-checked contract: names,
units, direction and the regression *bound* of every metric.  Its schema
admits nothing else, so what a reader also needs lives here: the clock
each number uses (``host`` / ``sim`` / ``n`` = exact count), the absolute
*floor* under which a difference is noise, and ``moves`` — the prediction,
written before measuring, of which end-to-end metric a layer metric
should move and on which workload (on every other workload the
prediction is *no change*).  ``python -m perf --selftest`` asserts the
two files name the same metrics.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER", "EndToEnd", "Layer"]

SS, WC, SORT, SVC = ("shuffle-storm", "wc-datapath", "sort-bulk",
                     "service-replay")

#: workload name -> why it exists (names are fixed; later issues cite them)
WORKLOADS: Dict[str, str] = {
    SS: "128-node weak-scaling WordCount: 2N splits each push to N-1 peers, "
        "so simt, net.transport and span recording do the work and "
        "to_report() is expensive (ROADMAP items 2 and 5)",
    WC: "Figure 2(b) point, 24 MiB WordCount on 4 nodes: 9k events but 3.4M "
        "pairs, so kernels, collector and KVSchema.size_of do the work; "
        "bypasses every event-loop optimisation",
    SORT: "Figure 2(c) point, TeraSort 240k records on 16 nodes: few large "
          "NIC-contended transfers, no combiner or interning; a fast path "
          "for small sends or a combiner trick must show no change here",
    SVC: "200 mixed small jobs through JobServer on 4 nodes with telemetry "
         "on: stresses admission, per-job construct/teardown and sampling, "
         "and puts input materialisation in setup_s",
}


class EndToEnd(NamedTuple):
    unit: str
    clock: str      # "host" or "sim"
    floor: float    # absolute difference below which a change is noise
    what: str


class Layer(NamedTuple):
    unit: str
    clock: str      # "host", "sim" or "n" (exact count)
    moves: str      # end-to-end metric @ workload(s) it should move


END_TO_END: Dict[str, EndToEnd] = {
    "wall_s": EndToEnd(
        "s", "host", 0.05,
        "median seconds for one simulate call, tracing off, cyclic GC on"),
    "run_report_s": EndToEnd(
        "s", "host", 0.05,
        "median seconds for simulate plus to_report() + json.dumps"),
    "setup_s": EndToEnd(
        "s", "host", 0.05,
        "median seconds for one cold set-up: import repro, generate or "
        "materialise inputs, construct apps (reference excluded)"),
    "peak_rss_mb": EndToEnd(
        "MB", "host", 5.0,
        "ru_maxrss after set-up and one simulate + report, read before any "
        "reference is computed"),
    "sim_elapsed_s": EndToEnd(
        "s", "sim", 0.0,
        "job_time (makespan for service-replay); identical on every rep"),
}

_EVENTS = f"wall_s @ {SS} (weakly {SVC})"
_REPORT = f"run_report_s - wall_s @ {SS}"
_DATAPATH = f"wall_s @ {WC}"
_SIM = f"sim_elapsed_s @ {SORT}, {SS}"

PER_LAYER: Dict[str, Layer] = {
    # simt: the event loop
    "simt.events": Layer("count", "n", _EVENTS),
    "simt.resource_acquires": Layer("count", "n", _EVENTS),
    "simt.step_self_s": Layer("s", "host", _EVENTS),
    "simt.us_per_event": Layer("us", "host", _EVENTS),
    "simt.bare_us_per_event": Layer("us", "host", _EVENTS),
    # net.transport
    "net.sends": Layer("count", "n", _EVENTS),
    "net.bytes": Layer("count", "n", _SIM),
    "net.replay_us_per_send": Layer("us", "host", _EVENTS),
    "net.sim_wait_s": Layer("s", "sim", _SIM),
    # core.collector
    "collector.calls": Layer("count", "n", _DATAPATH),
    "collector.pairs_in": Layer("count", "n", _DATAPATH),
    "collector.pairs_out": Layer("count", "n", _DATAPATH),
    "collector.self_s": Layer("s", "host", _DATAPATH),
    "collector.replay_ns_per_pair": Layer("ns", "host", _DATAPATH),
    # storage.records
    "records.size_of_calls": Layer("count", "n", f"{_DATAPATH}, {SORT}"),
    "records.pairs_sized": Layer("count", "n", f"{_DATAPATH}, {SORT}"),
    "records.self_s": Layer("s", "host", f"{_DATAPATH}, {SORT}"),
    "records.replay_ns_per_pair": Layer("ns", "host",
                                        f"{_DATAPATH}, {SORT}"),
    # apps
    "apps.map_calls": Layer("count", "n", _DATAPATH),
    "apps.map_self_s": Layer("s", "host", _DATAPATH),
    "apps.combine_self_s": Layer("s", "host", _DATAPATH),
    "apps.reduce_calls": Layer("count", "n", _DATAPATH),
    "datagen.setup_s": Layer("s", "host", f"setup_s @ {SVC}"),
    "datagen.mb_per_s": Layer("MB/s", "host", f"setup_s @ {SVC}"),
    # engine: core.map_phase / reduce_phase / pipeline / intermediate
    "engine.records_mapped": Layer("count", "n", _DATAPATH),
    "engine.pairs_emitted": Layer("count", "n", _DATAPATH),
    "engine.keys_reduced": Layer("count", "n", f"wall_s @ {SORT}"),
    "engine.leaked_buffer_slots": Layer("count", "n", "failed operations"),
    "engine.sim_map_s": Layer("s", "sim", _SIM),
    "engine.sim_merge_delay_s": Layer("s", "sim", _SIM),
    "engine.sim_reduce_s": Layer("s", "sim", _SIM),
    "engine.map_overlap_factor": Layer("ratio", "sim", _SIM),
    "engine.map_dominant_share": Layer("ratio", "sim", _SIM),
    "engine.residual_s": Layer("s", "host", _EVENTS),
    # core.sched / storage
    "sched.placements": Layer("count", "n", _SIM),
    "sched.locality_hit_rate": Layer("ratio", "sim", _SIM),
    "storage.sim_disk_read_s": Layer("s", "sim", _SIM),
    "storage.sim_disk_write_s": Layer("s", "sim", _SIM),
    # obs
    "obs.spans": Layer("count", "n", f"wall_s, run_report_s @ {SS}"),
    "obs.wait_edges": Layer("count", "n", _REPORT),
    "obs.record_self_s": Layer("s", "host", f"wall_s @ {SS}"),
    "obs.telemetry_samples": Layer("count", "n", f"wall_s @ {SVC}"),
    "obs.telemetry_self_s": Layer("s", "host", f"wall_s @ {SVC}"),
    "obs.to_report_s": Layer("s", "host", _REPORT),
    "obs.causal_profile_s": Layer("s", "host", _REPORT),
    "obs.pipeline_report_s": Layer("s", "host", _REPORT),
    "obs.chrome_export_s": Layer("s", "host", "--trace-out users only"),
    # service
    "service.jobs_completed": Layer("count", "n", "failed operations"),
    "service.sim_jobs_per_s": Layer("1/s", "sim", f"sim_elapsed_s @ {SVC}"),
    "service.sim_latency_p50_s": Layer("s", "sim",
                                       f"sim_elapsed_s @ {SVC}"),
    "service.sim_latency_p95_s": Layer("s", "sim",
                                       f"sim_elapsed_s @ {SVC}"),
    "service.peak_queue_depth": Layer("count", "n",
                                      f"sim_elapsed_s @ {SVC}"),
    "service.submit_s": Layer("s", "host", f"wall_s @ {SVC}"),
    "service.materialize_s": Layer("s", "host", f"setup_s @ {SVC}"),
    # harness
    "trace.overhead_ratio": Layer("ratio", "host", "none (price of tracing)"),
    "trace.attributed_share": Layer("ratio", "host", "none (coverage)"),
    "host.gc_s": Layer("s", "host", "wall_s on every workload (its share)"),
    "host.gc_collections": Layer("count", "host",
                                 "wall_s on every workload"),
    "host.calib_s": Layer("s", "host", "every host metric (machine speed)"),
    "host.loadavg1": Layer("ratio", "host", "every host metric (noise)"),
    "sim_digest": Layer("hash", "n", "sim_elapsed_s on every workload"),
}
