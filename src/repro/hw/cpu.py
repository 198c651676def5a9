"""Fluid (processor-sharing) model of a node's CPU hardware threads.

A malleable task asks for ``threads`` parallel workers to perform a fixed
amount of *thread-seconds* of work.  While the total thread demand fits
inside the pool's capacity every task runs at full speed; when the node is
oversubscribed all tasks slow down proportionally (the OS time-slices).

This single mechanism reproduces several observations of the paper without
any special-casing:

* with double buffering, map-kernel threads compete with partitioner
  threads, so partitioning is *slower* than in single-buffering mode
  (Table II, right column);
* raising the partitioner thread count N starves the merger threads and
  grows the merge delay (Figure 4b);
* running the kernel on the GPU frees the host cores and partitioning
  time drops across all configurations (Table III b).
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.simt.core import Event, Simulator

__all__ = ["FluidCPU"]

_EPS = 1e-9


class _Task:
    __slots__ = ("threads", "remaining", "event")

    def __init__(self, threads: int, remaining: float, event: Event):
        self.threads = threads
        self.remaining = remaining  # thread-seconds of work left
        self.event = event


class FluidCPU:
    """Processor-sharing pool of ``capacity`` hardware threads.

    :meth:`run` returns an event that fires when the submitted work
    completes.  The aggregate execution rate never exceeds ``capacity``
    thread-seconds per second, and a task's rate never exceeds its own
    thread count (a 2-thread task cannot use 8 cores).
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "cpu"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._tasks: list[_Task] = []
        self._demand = 0  # incrementally maintained sum of task threads
        self._last_update = 0.0
        self._timer_gen = itertools.count()
        self._timer_token: Optional[int] = None

    # -- public API --------------------------------------------------------
    def run(self, threads: int, thread_seconds: float) -> Event:
        """Submit ``thread_seconds`` of work spread over ``threads`` workers.

        Returns an event fired on completion.  Zero-length work completes
        immediately.
        """
        if threads < 1:
            raise ValueError("threads must be >= 1")
        if thread_seconds < 0:
            raise ValueError("negative work")
        ev = Event(self.sim)
        if thread_seconds == 0:
            ev.succeed(None)
            return ev
        self._advance()
        self._tasks.append(_Task(threads, thread_seconds, ev))
        self._demand += threads
        self._reschedule()
        return ev

    @property
    def demand(self) -> int:
        """Currently requested thread count across active tasks."""
        return self._demand

    def busy_fraction(self) -> float:
        """Fraction of the pool's capacity currently executing (0..1)."""
        return min(1.0, self._demand / self.capacity)

    def _share(self) -> float:
        """Current fair-share factor in (0, 1]."""
        if self._demand <= self.capacity:
            return 1.0
        return self.capacity / self._demand

    # -- internals -----------------------------------------------------------
    def _advance(self) -> None:
        """Charge elapsed virtual time against every active task."""
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._tasks:
            return
        share = self._share()
        for task in self._tasks:
            task.remaining -= task.threads * share * dt
            if task.remaining < 0:
                task.remaining = 0.0

    def _reschedule(self) -> None:
        """(Re)arm the completion timer for the earliest-finishing task."""
        self._timer_token = None
        if not self._tasks:
            return
        share = self._share()
        eta = min(t.remaining / (t.threads * share) for t in self._tasks)
        token = next(self._timer_gen)
        self._timer_token = token
        timer = self.sim.timeout(max(eta, 0.0))
        timer.subscribe(lambda _ev, tok=token: self._on_timer(tok))

    def _on_timer(self, token: int) -> None:
        if token != self._timer_token:
            return  # stale timer: the task set changed since it was armed
        self._advance()
        finished = [t for t in self._tasks if t.remaining <= _EPS]
        if finished:
            self._tasks = [t for t in self._tasks if t.remaining > _EPS]
            self._demand -= sum(t.threads for t in finished)
            for task in finished:
                task.event.succeed(None)
        self._reschedule()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FluidCPU {self.name!r} cap={self.capacity} "
                f"demand={self.demand} tasks={len(self._tasks)}>")
