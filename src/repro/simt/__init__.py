"""Discrete-event simulation kernel (simpy-style, dependency-free).

The Glasswing reproduction executes *real* data transformations while
charging their cost to a virtual clock.  This package provides the event
loop that makes that possible:

* :class:`~repro.simt.core.Simulator` — virtual clock + event heap.
* :class:`~repro.simt.core.Process` — generator-based coroutine processes.
* :class:`~repro.simt.resources.Resource` — FCFS token pools (disk
  channels, device engines, NICs, the fabric), held through ``take()``.
* :class:`~repro.simt.resources.Store` — unbounded FIFO channels between
  pipeline stages.
* :class:`~repro.simt.resources.BufferPool` — indexed buffer slots (the
  pipeline's buffer interlock), held through ``take()``.
* :class:`~repro.simt.trace.Timeline` — span recording used by the paper's
  per-stage breakdown tables (Tables II/III, Figures 4/5).

Determinism: given identical inputs, event ordering is fully deterministic
(ties broken by a monotonically increasing sequence number).
"""

from repro.simt.core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.simt.resources import BufferPool, Resource, Store
from repro.simt.trace import Span, Timeline

__all__ = [
    "AllOf",
    "AnyOf",
    "BufferPool",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Span",
    "Store",
    "Timeline",
    "Timeout",
]
