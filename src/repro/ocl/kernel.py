"""Analytical kernel cost model.

A :class:`KernelCost` describes the resources one kernel launch consumes;
the application computes its data transformation host-side and the device
translates the cost into virtual seconds::

    time = launch_overhead * launches
         + max(flops / device.flops, device_bytes / device.mem_bw)
         * (1 + device.atomic_penalty * atomic_intensity)

The ``max`` term follows the roofline model: a kernel is either
compute-bound or memory-bound.  ``atomic_intensity`` in [0, 1] models
contended atomics — the paper's hash-table collector slows down kernels on
workloads with heavy key repetition (WordCount), and more so on devices
with expensive atomics (GTX480).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.hw.specs import DeviceSpec

__all__ = ["KernelCost"]


@dataclass(frozen=True)
class KernelCost:
    """Resource consumption of one kernel launch."""

    flops: float = 0.0              # floating/integer ops executed
    device_bytes: float = 0.0       # device-memory traffic, bytes
    atomic_intensity: float = 0.0   # 0 = no atomics .. 1 = fully serialised
    launches: int = 1               # kernel invocations (Fig 5: overhead!)

    def __post_init__(self) -> None:
        if self.flops < 0 or self.device_bytes < 0 or self.launches < 0:
            raise ValueError("negative kernel cost")
        if not (0.0 <= self.atomic_intensity <= 1.0):
            raise ValueError("atomic_intensity must be within [0, 1]")

    def roofline_on(self, device: DeviceSpec) -> float:
        """Roofline execution time (no launch overhead), full device."""
        roofline = max(
            self.flops / device.flops,
            self.device_bytes / device.mem_bw,
        )
        contention = 1.0 + device.atomic_penalty * self.atomic_intensity
        return roofline * contention

    def time_on(self, device: DeviceSpec) -> float:
        """Virtual seconds this launch takes on ``device``."""
        return device.launch_overhead * self.launches + self.roofline_on(device)

    def scaled(self, factor: float) -> "KernelCost":
        """Cost multiplied by ``factor`` (launches kept)."""
        return replace(self, flops=self.flops * factor,
                       device_bytes=self.device_bytes * factor)

    def __add__(self, other: "KernelCost") -> "KernelCost":
        return KernelCost(
            flops=self.flops + other.flops,
            device_bytes=self.device_bytes + other.device_bytes,
            atomic_intensity=max(self.atomic_intensity, other.atomic_intensity),
            launches=self.launches + other.launches,
        )
