"""The Configuration API: everything a Glasswing job can tune.

The paper's §III-F: "The Configuration API allows developers to specify
key job parameters ... input files ... which compute devices are to be
used and configure the pipeline buffering levels."  The knobs exercised by
the evaluation are all here:

* ``buffering`` — single/double/triple pipeline buffering (§III-D).
* ``collector`` / ``use_combiner`` — hash-table vs shared-buffer-pool map
  output collection, with optional combiner (§III-F, Tables II/III).
* ``partitioner_threads`` (N) and ``partitions_per_node`` (P) — the
  fine-grained intermediate-data parallelism of Figure 4.
* ``concurrent_keys`` / ``keys_per_thread`` — reduce kernel geometry
  (§III-C, Figure 5).
* ``device`` — which compute device runs the kernels (CPU/GPU/MIC).
* ``storage`` — DFS (HDFS-like) or node-local files.
* ``batch_size`` — simulation granularity of the batched hot path
  (records per pipeline payload); not a paper knob, see
  docs/performance.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.hw.specs import DeviceKind, MiB
from repro.storage.records import CompressionModel

__all__ = ["JobConfig"]


def _default_scheduler() -> str:
    """Session-wide policy override hook (used by the CI scheduler
    matrix to run the whole suite under each policy)."""
    return os.environ.get("REPRO_SCHEDULER", "static-affinity")


@dataclass(frozen=True)
class JobConfig:
    """Immutable job configuration (paper defaults unless noted)."""

    # -- devices & pipeline -------------------------------------------------
    device: DeviceKind = DeviceKind.CPU
    #: per-phase overrides — "map and reduce tasks can be executed on
    #: CPUs or GPUs" (§II): an I/O-heavy reduce can stay on the CPU while
    #: the compute-heavy map runs on the GPU
    map_device: Optional[DeviceKind] = None
    reduce_device: Optional[DeviceKind] = None
    #: heterogeneous per-node device *pool*: when set, every kind in the
    #: tuple runs its own concurrently scheduled pipeline per phase
    #: (e.g. ``(CPU, GPU)``), fed operation-by-operation by the
    #: scheduler.  ``None`` keeps the classic one-device-per-phase shape.
    devices: Optional[Tuple[DeviceKind, ...]] = None
    #: placement policy: "static-affinity" (pre-computed, the original
    #: behaviour), "dynamic-locality" (runtime pull, local-first) or
    #: "oplevel" (global LPT queue).  Defaults from $REPRO_SCHEDULER.
    scheduler: str = field(default_factory=_default_scheduler)
    buffering: int = 2                  # 1 = single, 2 = double, 3 = triple
    chunk_size: int = 16 * MiB          # input split processed per kernel
    #: simulation granularity: records per pipeline payload (map) and keys
    #: per reduce work item.  ``None`` autotunes to one batch per split —
    #: the fastest wall-clock setting; 1 simulates record-at-a-time (the
    #: differential-test ground truth).  Virtual time is granularity-
    #: invariant up to cost-model rounding; see docs/performance.md.
    batch_size: Optional[int] = None

    # -- map output collection ------------------------------------------------
    collector: str = "hash"             # "hash" | "buffer"
    use_combiner: bool = True

    # -- intermediate data -----------------------------------------------------
    partitions_per_node: int = 8        # P
    partitioner_threads: int = 8        # N
    merger_threads: Optional[int] = None  # defaults to P
    cache_threshold: int = 64 * MiB     # flush when cache exceeds this
    max_intermediate_files: int = 4     # per partition, kept by merging
    compression: CompressionModel = field(default_factory=CompressionModel)

    # -- reduce pipeline -----------------------------------------------------
    concurrent_keys: int = 4096         # keys processed per reduce launch
    keys_per_thread: int = 4            # sequential keys per kernel thread
    reduce_threads_per_key: int = 1     # parallel reduction within a key
    max_values_per_launch: int = 1 << 20  # beyond this, scratch-buffer relaunch

    # -- storage ------------------------------------------------------------
    storage: str = "dfs"                # "dfs" | "local"
    output_replication: int = 3
    input_replication: int = 3

    # -- fault tolerance (§III-E) ---------------------------------------------
    #: total attempts a map/reduce task may consume before the job aborts
    max_attempts: int = 4
    #: race a speculative duplicate of straggling map tasks on another node
    speculative_execution: bool = False
    #: a launch is straggling once it exceeds this multiple of the mean
    #: observed kernel duration
    speculation_factor: float = 1.75

    # -- elasticity & control plane (docs/elasticity.md) ---------------------
    #: start the job on the first ``active_nodes`` hardware nodes only;
    #: the rest are standbys a ``NodeJoin`` (or the elastic controller)
    #: can activate mid-job.  ``None`` = every node is active (classic).
    active_nodes: Optional[int] = None
    #: control-plane replicas; 1 reproduces the single immortal
    #: coordinator (a ``CoordinatorCrash`` then kills the job)
    coordinator_replicas: int = 1
    #: virtual seconds one leader election costs (failure detection +
    #: election rounds, charged once per failover regardless of how many
    #: control-plane calls were waiting)
    failover_timeout: float = 0.05

    # -- observability ------------------------------------------------------
    #: telemetry sampling period in *simulated* seconds; ``None`` disables
    #: the sampler entirely (zero instrumentation cost)
    metrics_interval: Optional[float] = None

    def __post_init__(self) -> None:
        if self.buffering not in (1, 2, 3):
            raise ValueError("buffering level must be 1, 2 or 3")
        if self.collector not in ("hash", "buffer"):
            raise ValueError(f"unknown collector {self.collector!r}")
        if self.storage not in ("dfs", "local"):
            raise ValueError(f"unknown storage {self.storage!r}")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        for attr in ("partitions_per_node", "partitioner_threads",
                     "concurrent_keys", "keys_per_thread",
                     "reduce_threads_per_key", "output_replication"):
            if getattr(self, attr) < 1:
                raise ValueError(f"{attr} must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 (or None to autotune)")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.speculation_factor <= 1.0:
            raise ValueError("speculation_factor must be > 1")
        if self.metrics_interval is not None:
            from repro.obs.telemetry import valid_interval
            valid_interval(self.metrics_interval)
        if self.active_nodes is not None and self.active_nodes < 1:
            raise ValueError("active_nodes must be >= 1 (or None for all)")
        if self.coordinator_replicas < 1:
            raise ValueError("coordinator_replicas must be >= 1")
        if self.failover_timeout < 0:
            raise ValueError("failover_timeout must be >= 0")
        from repro.core.sched import SCHEDULER_NAMES
        if self.scheduler not in SCHEDULER_NAMES:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; expected one of "
                f"{', '.join(SCHEDULER_NAMES)}")
        if self.devices is not None:
            if not self.devices:
                raise ValueError("devices pool must not be empty")
            if len(set(self.devices)) != len(self.devices):
                raise ValueError("devices pool has duplicate kinds")
        if self.use_combiner and self.collector == "buffer":
            # §III-F: the combiner is supported only for the hash table
            # collection mechanism.
            raise ValueError(
                "the combiner requires the hash-table collector")

    @property
    def effective_map_device(self) -> DeviceKind:
        """Device the map kernels run on (override or job default)."""
        return self.map_device if self.map_device is not None else self.device

    @property
    def effective_reduce_device(self) -> DeviceKind:
        """Device the reduce kernels run on (override or job default)."""
        return (self.reduce_device if self.reduce_device is not None
                else self.device)

    @property
    def map_device_pool(self) -> Tuple[DeviceKind, ...]:
        """Devices the map phase runs on (the pool, or the single
        effective device wrapped in a 1-tuple)."""
        return self.devices if self.devices else (self.effective_map_device,)

    @property
    def reduce_device_pool(self) -> Tuple[DeviceKind, ...]:
        """Devices the reduce phase runs on."""
        return self.devices if self.devices \
            else (self.effective_reduce_device,)

    @property
    def effective_merger_threads(self) -> int:
        """Merger worker count (defaults to one per partition)."""
        return self.merger_threads if self.merger_threads is not None \
            else self.partitions_per_node

    def with_(self, **kwargs) -> "JobConfig":
        """Copy with overrides (convenience for parameter sweeps)."""
        return replace(self, **kwargs)
