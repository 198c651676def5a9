"""Glasswing core: the 5-stage map/reduce pipelines and their machinery.

Modules:

* :mod:`repro.core.api` — the application-facing kernel API (map, combine,
  reduce, cost models, partitioners).
* :mod:`repro.core.config` — the Configuration API (:class:`JobConfig`).
* :mod:`repro.core.data` — chunks, sorted runs, partitions.
* :mod:`repro.core.collector` — map-output collection mechanisms (shared
  buffer pool vs. hash table with combiner support).
* :mod:`repro.core.intermediate` — per-node intermediate data management:
  partition cache, threshold flush, background multi-way merging, the
  merge-delay metric.
* :mod:`repro.core.pipeline` — the generic 5-stage pipeline with
  single/double/triple buffering.
* :mod:`repro.core.map_phase` / :mod:`repro.core.reduce_phase` — the two
  pipeline instantiations.
* :mod:`repro.core.coordinator` — split scheduling with file affinity and
  the shuffle registry (ownership / delivery ledger / durable index).
* :mod:`repro.core.faults` — fault plans (deterministic and seeded-random)
  and the cluster-health view.
* :mod:`repro.core.recovery` — the node-crash recovery wave and the
  straggler/speculation controller.
* :mod:`repro.core.engine` — job orchestration (:func:`run_glasswing`).
* :mod:`repro.core.metrics` — per-stage breakdowns (Tables II/III, Figs 4/5).
"""

from repro.core.api import MapReduceApp
from repro.core.config import JobConfig
from repro.core.engine import GlasswingResult, run_glasswing
from repro.core.faults import (ClusterHealth, FaultPlan, NodeCrash,
                               TaskFailedError)

__all__ = [
    "JobConfig", "MapReduceApp", "GlasswingResult", "run_glasswing",
    "FaultPlan", "NodeCrash", "ClusterHealth",
    "TaskFailedError",
]
