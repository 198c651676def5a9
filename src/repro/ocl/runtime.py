"""Devices, contexts and device-memory buffers."""

from __future__ import annotations

from typing import Generator, Iterable, List, Optional

from repro.hw.node import Node
from repro.hw.specs import DeviceKind, DeviceSpec
from repro.simt.core import Simulator
from repro.simt.resources import Resource

from repro.ocl.kernel import KernelCost

__all__ = [
    "OCLError",
    "OutOfDeviceMemory",
    "Device",
    "Context",
    "Buffer",
]


class OCLError(RuntimeError):
    """Generic runtime error (foreign device, double release, ...)."""


class OutOfDeviceMemory(OCLError):
    """Buffer allocation exceeded the device's memory capacity."""


class Device:
    """A compute device bound to a node.

    * CPU devices execute kernels on the node's fluid-shared host threads,
      so they contend with partitioner/merger threads.
    * Discrete devices (GPU, Xeon Phi) have their own serial execution
      engine and a DMA engine for host<->device transfers; they leave the
      host threads free (the paper's Table III(b) effect).
    """

    def __init__(self, sim: Simulator, spec: DeviceSpec, node: Node):
        self.sim = sim
        self.spec = spec
        self.node = node
        self.mem_used = 0
        self._exec_engine = Resource(sim, 1, name=f"{spec.name}.exec")
        self._dma_engine = Resource(sim, 1, name=f"{spec.name}.dma")
        self.kernels_launched = 0
        self.bytes_transferred = 0

    # -- memory ----------------------------------------------------------
    def _alloc(self, nbytes: int) -> None:
        if self.mem_used + nbytes > self.spec.device_mem:
            raise OutOfDeviceMemory(
                f"{self.spec.name}: {nbytes} bytes requested, "
                f"{self.spec.device_mem - self.mem_used} free")
        self.mem_used += nbytes

    def _free(self, nbytes: int) -> None:
        self.mem_used -= nbytes
        if self.mem_used < 0:
            raise OCLError("device memory accounting underflow")

    # -- operations (process-style generators) -----------------------------
    def execute_cost(self, cost: KernelCost,
                     threads: Optional[int] = None) -> Generator:
        """Charge the time of a launch whose real work ran host-side.

        The Glasswing phases compute their data transformations inline and
        use this to charge the device: ``threads`` is how many device
        work-items actually have work (reduce with few concurrent keys
        underutilises the device; a CPU launch over fewer host threads
        both slows down and frees cores for other stages).
        """
        overhead = self.spec.launch_overhead * cost.launches
        roofline = cost.roofline_on(self.spec)
        self.kernels_launched += cost.launches
        if self.spec.kind is DeviceKind.CPU:
            if overhead > 0:
                # Kernel dispatch is serial host work.
                yield self.node.cpu.run(1, overhead)
            if roofline > 0:
                n = threads if threads is not None else self.spec.compute_units
                n = max(1, min(n, self.node.cpu.capacity))
                yield self.node.cpu.run(n, roofline * self.spec.compute_units)
        else:
            util = 1.0
            if threads is not None:
                util = max(1.0 / self.spec.compute_units,
                           min(1.0, threads / self.spec.compute_units))
            yield from self._exec_engine.take()
            try:
                yield self.sim.timeout(overhead + roofline / util)
            finally:
                self._exec_engine.release()

    def transfer(self, nbytes: int, direction: str = "h2d") -> Generator:
        """Move ``nbytes`` between host and device memory (no-op if unified)."""
        if direction not in ("h2d", "d2h"):
            raise ValueError(f"unknown transfer direction {direction!r}")
        if self.spec.unified_memory or nbytes == 0:
            return
        yield from self._dma_engine.take()
        try:
            yield self.sim.timeout(nbytes / self.spec.transfer_bw)
            self.bytes_transferred += nbytes
        finally:
            self._dma_engine.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Device {self.spec.name!r} on node {self.node.node_id}>"


class Context:
    """Owns devices and the buffers allocated against them."""

    def __init__(self, sim: Simulator, devices: Iterable[Device]):
        self.sim = sim
        self.devices: List[Device] = list(devices)
        if not self.devices:
            raise OCLError("a context needs at least one device")
        self._buffers: List["Buffer"] = []

    def alloc_buffer(self, device: Device, nbytes: int,
                     name: str = "buf") -> "Buffer":
        """Allocate ``nbytes`` of device memory on ``device``."""
        if device not in self.devices:
            raise OCLError("device not part of this context")
        if nbytes < 0:
            raise ValueError("negative buffer size")
        device._alloc(nbytes)
        buf = Buffer(self, device, nbytes, name)
        self._buffers.append(buf)
        return buf

    def release(self, buf: "Buffer") -> None:
        """Free a buffer's device memory."""
        if buf.released:
            raise OCLError(f"double release of buffer {buf.name!r}")
        buf.device._free(buf.nbytes)
        buf.released = True
        self._buffers.remove(buf)

    def release_all(self) -> None:
        """Free every live buffer, oldest first (a no-op once empty)."""
        for buf in list(self._buffers):
            self.release(buf)


class Buffer:
    """A device-memory allocation."""

    def __init__(self, context: Context, device: Device, nbytes: int, name: str):
        self.context = context
        self.device = device
        self.nbytes = nbytes
        self.name = name
        self.released = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "released" if self.released else f"{self.nbytes}B"
        return f"<Buffer {self.name!r} {state}>"

