"""Compile a :class:`~repro.dag.graph.DAG` to jobs on one shared session.

One :class:`DagRunner` owns exactly the state the naive re-submission
driver rebuilds every round and should not:

* the :class:`~repro.core.engine.ClusterSession` — simulator, timeline,
  telemetry hub, cluster hardware and device cache, constructed once;
* one storage backend wrapped in a
  :class:`~repro.storage.cache.CacheAsideBackend` — immutable datasets
  are pinned so their split reads are served from RAM after round one,
  and inputs are (re)installed only when their content fingerprint
  changes;
* the **split layout cache** — ``make_splits`` is pure on (paths,
  chunk size, record size) as long as no involved file changed, so the
  partition layout of an unchanged input is reused across rounds.

Each call to :meth:`DagRunner.run` executes the DAG's stages in
topological order as non-exclusive :class:`JobExecution`\\ s, one round.
Iterative drivers call :meth:`run` repeatedly on the same runner — that
is the whole trick: round two onward pays neither setup nor cold reads.
Every stage run gets its own :class:`~repro.simt.trace.TimelineFork`
labelled ``<stage>@r<round>``, so the merged Perfetto trace renders one
lane per round and the report gains per-round sections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import JobConfig
from repro.core.coordinator import make_splits
from repro.core.costs import DEFAULT_HOST_COSTS, HostCosts
from repro.core.engine import (ClusterSession, GlasswingResult, JobExecution,
                               open_backend)
from repro.core.faults import FaultPlan
from repro.core.membership import initial_active
from repro.hw.specs import ClusterSpec
from repro.storage.cache import CacheAsideBackend

from repro.dag.graph import DAG, DagError, Stage, StageOutput

__all__ = ["DagRunner", "DagResult", "StageRun"]


@dataclass
class StageRun:
    """One executed (stage, round) pair."""

    stage: str
    round: int
    label: str                       # "<stage>@r<round>" — the trace lane
    result: GlasswingResult
    elapsed: float                   # simulated seconds for this run
    cache_hit_bytes: int             # cache-aside bytes served this run
    cache_miss_bytes: int            # bytes that went to real storage

    def section(self) -> Dict[str, Any]:
        """The per-round report section (JSON-friendly)."""
        return {
            "stage": self.stage,
            "round": self.round,
            "label": self.label,
            "elapsed": self.elapsed,
            "map_time": self.result.map_time,
            "merge_delay": self.result.merge_delay,
            "reduce_time": self.result.reduce_time,
            "network_bytes": self.result.stats.get("network_bytes", 0),
            "cache_hit_bytes": self.cache_hit_bytes,
            "cache_miss_bytes": self.cache_miss_bytes,
        }


@dataclass
class DagResult:
    """Outcome of one :meth:`DagRunner.run` round."""

    dag_name: str
    round: int
    stage_runs: List[StageRun]
    broadcast: Dict[str, Any]
    outputs: Dict[str, List[Tuple[Any, Any]]]    # stage -> sorted pairs
    cache: Dict[str, Any] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        """Simulated seconds across this round's stages."""
        return sum(run.elapsed for run in self.stage_runs)

    def to_report(self) -> Dict[str, Any]:
        """Structured report: one section per stage run + cache totals."""
        return {
            "schema": "glasswing-dag-report/1",
            "dag": self.dag_name,
            "round": self.round,
            "total_time": self.total_time,
            "rounds": [run.section() for run in self.stage_runs],
            "cache": dict(self.cache),
        }


class DagRunner:
    """Executes DAG rounds on one long-lived session with cached inputs.

    ``config`` is the default :class:`JobConfig` (a stage's own config
    overrides it, except ``storage``/``chunk_size``/``input_replication``/
    ``active_nodes`` which are backend-level and fixed at construction:
    input placement follows the runner's initially-active set, so a stage
    naming a different set is rejected with :class:`DagError`).
    ``cache_capacity`` bounds the cache-aside layer in bytes (LRU);
    ``None`` leaves it unbounded.
    """

    def __init__(self, cluster_spec: ClusterSpec,
                 config: Optional[JobConfig] = None,
                 costs: HostCosts = DEFAULT_HOST_COSTS,
                 metrics_interval: Optional[float] = None,
                 cache_capacity: Optional[int] = None):
        self.config = config or JobConfig()
        self.costs = costs
        interval = (metrics_interval if metrics_interval is not None
                    else self.config.metrics_interval)
        self.session = ClusterSession(cluster_spec,
                                      metrics_interval=interval)
        self._active = initial_active(len(self.session.cluster),
                                      self.config.active_nodes)
        self.backend: Optional[CacheAsideBackend] = None
        self._cache_capacity = cache_capacity
        self._fingerprints: Dict[str, Tuple[int, int]] = {}
        self._splits: Dict[Tuple[Tuple[str, ...], int, Optional[int]],
                           List] = {}
        self.rounds = 0
        self.stage_runs: List[StageRun] = []    # cumulative, all rounds

    # -- storage ------------------------------------------------------------
    def _ensure_backend(self) -> CacheAsideBackend:
        if self.backend is None:
            self.backend = CacheAsideBackend(
                open_backend(self.config, self.session.cluster, self._active),
                capacity_bytes=self._cache_capacity,
                sim=self.session.sim, timeline=self.session.timeline)
        return self.backend

    def _install(self, path: str, data: bytes, immutable: bool) -> None:
        """Install ``path`` unless its content is already in place.

        ``bytes`` caches its hash after the first call, so the
        fingerprint is cheap on the hot (unchanged) path.  A content
        change re-installs and drops the path's cached ranges *and*
        every memoised split layout that covers it.
        """
        backend = self._ensure_backend()
        fingerprint = (len(data), hash(data))
        if self._fingerprints.get(path) == fingerprint and backend.exists(path):
            return
        if backend.exists(path):
            backend.remove(path)
            self._splits = {key: layout
                            for key, layout in self._splits.items()
                            if path not in key[0]}
        backend.install(path, data)
        self._fingerprints[path] = fingerprint
        if immutable:
            backend.pin(path)

    def _splits_for(self, paths: List[str],
                    config: JobConfig,
                    record_size: Optional[int]) -> List:
        backend = self._ensure_backend()
        key = (tuple(sorted(paths)), config.chunk_size, record_size)
        layout = self._splits.get(key)
        if layout is None:
            layout = make_splits(backend, sorted(paths), config.chunk_size,
                                 record_size=record_size)
            self._splits[key] = layout
        return layout

    # -- execution ----------------------------------------------------------
    def run(self, dag: DAG, broadcast: Optional[Dict[str, Any]] = None,
            faults: Optional[Dict[str, FaultPlan]] = None) -> DagResult:
        """Execute one round of ``dag``: every stage once, in topo order.

        ``broadcast`` seeds the per-round state read by app factories;
        each stage's ``publish`` hook merges updates into it, and the
        final dict comes back on the :class:`DagResult`.  ``faults``
        optionally injects a :class:`FaultPlan` per stage name.
        """
        stages = dag.toposort()
        if faults:
            unknown = sorted(set(faults) - set(dag.stages))
            if unknown:
                raise DagError(f"fault plans target unknown stages {unknown}")
        broadcast = dict(broadcast or {})
        self.rounds += 1
        round_no = self.rounds
        backend = self._ensure_backend()
        for ds in dag.datasets.values():
            self._install(ds.path, ds.data, ds.immutable)

        runs: List[StageRun] = []
        outputs: Dict[str, List[Tuple[Any, Any]]] = {}
        raw_outputs: Dict[str, GlasswingResult] = {}
        for stage in stages:
            inputs: Dict[str, bytes] = {}
            for ref in stage.inputs:
                if isinstance(ref, StageOutput):
                    upstream = raw_outputs[ref.stage]
                    data = ref.encode(upstream.sorted_output())
                    # Join files change whenever the upstream re-runs:
                    # fingerprinted, never pinned.
                    self._install(ref.path, data, immutable=False)
                    inputs[ref.path] = data
                else:
                    inputs[ref] = dag.datasets[ref].data
            result, run = self._run_stage(stage, inputs, broadcast, round_no,
                                          faults.get(stage.name)
                                          if faults else None)
            runs.append(run)
            raw_outputs[stage.name] = result
            outputs[stage.name] = result.sorted_output()
            if stage.publish is not None:
                update = stage.publish(outputs[stage.name])
                if update is not None:
                    if not isinstance(update, dict):
                        raise DagError(
                            f"stage {stage.name!r}: publish must return a "
                            f"dict (or None), got {type(update).__name__}")
                    broadcast.update(update)
        self.stage_runs.extend(runs)
        return DagResult(dag_name=dag.name, round=round_no, stage_runs=runs,
                         broadcast=broadcast, outputs=outputs,
                         cache=backend.stats())

    def _run_stage(self, stage: Stage, inputs: Dict[str, bytes],
                   broadcast: Dict[str, Any], round_no: int,
                   faults: Optional[FaultPlan]
                   ) -> Tuple[GlasswingResult, StageRun]:
        session = self.session
        backend = self._ensure_backend()
        config = stage.config or self.config
        if initial_active(len(session.cluster),
                          config.active_nodes) != self._active:
            raise DagError(
                f"stage {stage.name!r}: active_nodes={config.active_nodes!r} "
                f"differs from the runner's {self.config.active_nodes!r}; "
                f"input placement is fixed to the runner's active set")
        app = stage.make_app(broadcast)
        splits = self._splits_for(sorted(inputs), config,
                                  app.record_format.record_size)
        label = f"{stage.name}@r{round_no}"
        hit0, miss0 = backend.hit_bytes, backend.miss_bytes
        t0 = session.sim.now
        execution = JobExecution(
            session, app, inputs, config=config, costs=self.costs,
            faults=faults, name=label,
            timeline=session.timeline.fork(label),
            backend=backend, splits=splits)
        execution.start()
        session.run()
        result = execution.result()
        execution.close()
        session.timeline.record("dag.stage", label, t0, session.sim.now,
                                stage=stage.name, round=round_no)
        run = StageRun(stage=stage.name, round=round_no, label=label,
                       result=result, elapsed=result.job_time,
                       cache_hit_bytes=backend.hit_bytes - hit0,
                       cache_miss_bytes=backend.miss_bytes - miss0)
        return result, run

    # -- teardown -----------------------------------------------------------
    def close(self) -> None:
        """Stop telemetry (final snapshot); the runner stays queryable."""
        if self.session.telemetry is not None:
            self.session.telemetry.stop()

    @property
    def total_time(self) -> float:
        """Simulated seconds across every round so far."""
        return sum(run.elapsed for run in self.stage_runs)

    def cache_stats(self) -> Dict[str, Any]:
        """Cache-aside counters so far (empty before the first round)."""
        return self.backend.stats() if self.backend is not None else {}
