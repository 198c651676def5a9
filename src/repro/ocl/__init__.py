"""The compute-device model the engines drive.

Glasswing requires map and reduce functions to be OpenCL kernels; since no
OpenCL implementation is available offline, this package models what a
kernel costs instead: per-device launch, compute, memory and PCIe cost on
a simulated execution/DMA engine, plus device-memory accounting, over the
device specs of :mod:`repro.hw`.  Applications compute their real output
host-side; its *duration* is charged to the virtual clock.

The engines drive a device through three calls only —
:meth:`Device.execute_cost` (charge a launch, as ``MapReduceApp.map_batch``
+ ``map_cost`` do), :meth:`Device.transfer` and the buffer accounting of
:class:`Context` (``alloc_buffer`` / ``release`` / ``release_all``).

Key correspondences with real OpenCL:

* ``CL_MEM_ALLOC_HOST_PTR`` / unified memory — CPU devices set
  ``unified_memory``; host<->device copies become no-ops, which is exactly
  how Glasswing disables its Stage and Retrieve pipeline stages.
* device memory limits — buffer allocation beyond ``device_mem`` raises,
  bounding the pipeline's buffering level on small-memory GPUs.
"""

from repro.ocl.kernel import KernelCost
from repro.ocl.runtime import (
    Buffer,
    Context,
    Device,
    OCLError,
    OutOfDeviceMemory,
)

__all__ = [
    "Buffer",
    "Context",
    "Device",
    "KernelCost",
    "OCLError",
    "OutOfDeviceMemory",
]
