"""Miniature OpenCL-style runtime over modeled devices.

Glasswing requires map and reduce functions to be OpenCL kernels; since no
OpenCL implementation is available offline, this package provides the same
*shape* of API (devices, contexts, device buffers, a kernel cost model)
over the device models of :mod:`repro.hw`.  Kernels are real Python/numpy
callables — they compute real output — while their *duration* is charged
to the virtual clock via a per-device analytical cost model.

The engines drive a device through three calls only —
:meth:`Device.execute_cost` (charge a launch whose data transformation
ran host-side, as ``MapReduceApp.map_batch`` + ``map_cost`` do),
:meth:`Device.transfer` and :meth:`Context.alloc_buffer` / ``release``.
:class:`Kernel`, :class:`CommandQueue` and :class:`OCLEvent` are an
in-order queue layer over the same device that no engine uses.

Key correspondences with real OpenCL:

* ``CL_MEM_ALLOC_HOST_PTR`` / unified memory — CPU devices set
  ``unified_memory``; host<->device copies become no-ops, which is exactly
  how Glasswing disables its Stage and Retrieve pipeline stages.
* in-order queues — each enqueued command waits for the previously
  enqueued one, plus any explicit event dependencies.
* device memory limits — buffer allocation beyond ``device_mem`` raises,
  bounding the pipeline's buffering level on small-memory GPUs.
"""

from repro.ocl.kernel import Kernel, KernelCost
from repro.ocl.runtime import (
    Buffer,
    CommandQueue,
    Context,
    Device,
    OCLError,
    OCLEvent,
    OutOfDeviceMemory,
)

__all__ = [
    "Buffer",
    "CommandQueue",
    "Context",
    "Device",
    "Kernel",
    "KernelCost",
    "OCLError",
    "OCLEvent",
    "OutOfDeviceMemory",
]
