"""Immutable hardware capability descriptions.

The numbers chosen for the presets are *effective* (achievable by tuned
MapReduce-style kernels), not peak datasheet figures: the paper's claims
are about ratios — GPU/CPU kernel speed, disk vs network vs compute — and
the presets are calibrated so those ratios match the published behaviour
(see EXPERIMENTS.md for the calibration notes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple

__all__ = [
    "DeviceKind",
    "DeviceSpec",
    "DiskSpec",
    "NetworkSpec",
    "NodeSpec",
    "ClusterSpec",
    "GiB",
    "MiB",
    "KiB",
]

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB


class DeviceKind(enum.Enum):
    """OpenCL device classes the paper evaluates."""

    CPU = "cpu"
    GPU = "gpu"
    ACCELERATOR = "accelerator"  # Intel Xeon Phi (MIC)


@dataclass(frozen=True)
class DeviceSpec:
    """An OpenCL compute device's effective capability numbers.

    Attributes
    ----------
    name:
        Marketing name, e.g. ``"NVIDIA GTX480"``.
    kind:
        CPU / GPU / accelerator.
    compute_units:
        Parallel hardware contexts the device schedules (cores x SMs ...).
        Used for workload-division heuristics, not raw speed.
    gflops:
        Effective compute throughput (single precision GFLOP/s) for
        MapReduce-style kernels.
    mem_bw:
        Effective device-memory bandwidth in bytes/s.
    transfer_bw:
        Host<->device transfer bandwidth in bytes/s (PCIe for discrete
        devices).  Ignored when ``unified_memory``.
    unified_memory:
        True when kernels read host memory directly (CPU devices): the
        pipeline's Stage and Retrieve stages are disabled, exactly as in
        the paper.
    device_mem:
        Device memory capacity in bytes (bounds in-flight buffers).
    launch_overhead:
        Fixed cost of one kernel invocation, seconds.
    atomic_penalty:
        Multiplier on kernel time per unit of atomic-contention intensity;
        models the paper's hash-table contention effect (high key
        repetition -> threads loop on atomics).
    """

    name: str
    kind: DeviceKind
    compute_units: int
    gflops: float
    mem_bw: float
    transfer_bw: float
    unified_memory: bool
    device_mem: int
    launch_overhead: float = 20e-6
    atomic_penalty: float = 1.0

    def __post_init__(self) -> None:
        if self.compute_units < 1:
            raise ValueError("compute_units must be >= 1")
        if min(self.gflops, self.mem_bw) <= 0:
            raise ValueError("throughputs must be positive")
        if not self.unified_memory and self.transfer_bw <= 0:
            raise ValueError("discrete devices need a positive transfer_bw")

    @property
    def flops(self) -> float:
        """Effective FLOP/s (``gflops`` scaled to base units)."""
        return self.gflops * 1e9


@dataclass(frozen=True)
class DiskSpec:
    """A node-local disk (or RAID set presented as one volume)."""

    name: str
    read_bw: float          # sequential read bytes/s
    write_bw: float         # sequential write bytes/s
    seek_time: float = 8e-3  # average positioning time, seconds
    capacity: int = 2 * 1024 * GiB

    def __post_init__(self) -> None:
        if min(self.read_bw, self.write_bw) <= 0:
            raise ValueError("disk bandwidths must be positive")


@dataclass(frozen=True)
class NetworkSpec:
    """Interconnect shared by all nodes of a cluster."""

    name: str
    bandwidth: float       # per-link (NIC) bytes/s, full duplex
    latency: float         # one-way message latency, seconds
    bisection_factor: float = 1.0  # fraction of aggregate NIC bw the fabric sustains

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.latency < 0:
            raise ValueError("invalid network spec")
        if not (0 < self.bisection_factor <= 1.0):
            raise ValueError("bisection_factor must be in (0, 1]")


@dataclass(frozen=True)
class NodeSpec:
    """One cluster node: host CPU cores + RAM + disk + attached devices."""

    name: str
    cores: int              # physical cores
    hw_threads: int         # schedulable contexts (with hyperthreading)
    ram: int                # bytes
    disk: DiskSpec
    devices: Tuple[DeviceSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.hw_threads < self.cores:
            raise ValueError("hw_threads cannot be below physical cores")
        if not any(d.kind is DeviceKind.CPU for d in self.devices):
            raise ValueError(
                "a node needs at least a CPU OpenCL device (the host itself)")

    def device(self, kind: DeviceKind) -> DeviceSpec:
        """First attached device of ``kind`` (raises KeyError if absent)."""
        for dev in self.devices:
            if dev.kind is kind:
                return dev
        raise KeyError(f"node {self.name!r} has no {kind.value} device")

    @property
    def cpu_device(self) -> DeviceSpec:
        """The node's host-CPU OpenCL device (always present)."""
        return self.device(DeviceKind.CPU)

    def has_device(self, kind: DeviceKind) -> bool:
        """True when a device of ``kind`` is attached."""
        return any(d.kind is kind for d in self.devices)


@dataclass(frozen=True)
class ClusterSpec:
    """Homogeneous (or mixed) collection of nodes plus the interconnect."""

    name: str
    nodes: Tuple[NodeSpec, ...]
    network: NetworkSpec

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a cluster needs at least one node")

    def __len__(self) -> int:
        return len(self.nodes)
