"""Observability: trace export and pipeline analysis.

The paper's whole evaluation (§IV-B, Tables II/III, Figures 4/5) is
per-stage timer data; this package turns the raw :class:`~repro.simt.trace.Timeline`
into artefacts a human (or a dashboard) can consume:

* :mod:`repro.obs.chrome` — Chrome trace-event JSON export
  (``chrome://tracing`` / Perfetto), one process row per node, one
  thread row per pipeline stage;
* :mod:`repro.obs.report` — :class:`PipelineReport` (per-stage
  utilization, overlap factor, dominant stage, critical-path
  attribution, saturated-resource ranking) and the structured job
  report behind :meth:`GlasswingResult.to_report`;
* :mod:`repro.obs.telemetry` — the continuous-sampling metrics hub
  (counters/gauges/histograms snapshotted every
  ``JobConfig.metrics_interval`` simulated seconds) with JSONL and
  OpenMetrics exporters plus a self-contained format validator;
* :mod:`repro.obs.causal` — causal wait-graph profiling: typed wait
  edges joined back onto their owning spans, the property-tested
  self+wait==elapsed decomposition and the ``glasswing-causal/1``
  profile;
* :mod:`repro.obs.diff` — the run-diff explainer ranking the
  (stage, wait-class, resource) causes of an elapsed delta between two
  profiles (the ``repro explain-diff`` CLI and the regress gate's
  root-cause table).
"""

from repro.obs.causal import (WAIT_CLASSES, causal_profile, match_waits,
                              verify_decomposition)
from repro.obs.chrome import (chrome_trace_events, to_chrome_trace,
                              write_chrome_trace)
from repro.obs.diff import explain_diff, load_profile, render_diff
from repro.obs.report import (PIPELINE_STAGES, PipelineReport,
                              aggregate_counters, build_job_report)
from repro.obs.telemetry import (Counter, Gauge, Histogram, MetricsRegistry,
                                 Telemetry, ensure_parent_dir,
                                 openmetrics_text, validate_openmetrics,
                                 write_json, write_metrics,
                                 write_metrics_jsonl, write_openmetrics)

__all__ = [
    "WAIT_CLASSES",
    "causal_profile",
    "match_waits",
    "verify_decomposition",
    "explain_diff",
    "load_profile",
    "render_diff",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "PIPELINE_STAGES",
    "PipelineReport",
    "aggregate_counters",
    "build_job_report",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "ensure_parent_dir",
    "openmetrics_text",
    "validate_openmetrics",
    "write_json",
    "write_metrics",
    "write_metrics_jsonl",
    "write_openmetrics",
]
