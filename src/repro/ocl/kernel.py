"""Kernel abstraction and analytical cost model.

A :class:`Kernel` couples a real Python callable (the data transformation)
with a :class:`KernelCost` describing the resources one launch consumes.
The device translates the cost into virtual seconds::

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
from typing import Any, Callable, Dict, Optional

from repro.hw.specs import DeviceSpec

__all__ = ["KernelCost", "Kernel"]


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


class Kernel:
    """A named device function: real computation + cost estimator.

    Parameters
    ----------
    name:
        Kernel identifier (for traces).
    fn:
        ``fn(**args) -> result`` — performs the real data transformation.
    cost_fn:
        ``cost_fn(device_spec, args) -> KernelCost`` — resources for one
        launch over those args.  When omitted, a kernel costs one launch
        overhead only (useful for control kernels such as compaction
        markers in tests).
    """

    def __init__(self, name: str,
                 fn: Callable[..., Any],
                 cost_fn: Optional[Callable[[DeviceSpec, Dict[str, Any]], KernelCost]] = None):
        self.name = name
        self.fn = fn
        self.cost_fn = cost_fn

    def cost(self, device: DeviceSpec, args: Dict[str, Any]) -> KernelCost:
        """Cost of one launch of this kernel with ``args`` on ``device``."""
        if self.cost_fn is None:
            return KernelCost()
        return self.cost_fn(device, args)

    def __call__(self, **args: Any) -> Any:
        return self.fn(**args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel {self.name!r}>"
