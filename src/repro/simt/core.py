"""Core event loop: simulator, events, processes and composite conditions.

The design follows the classic process-interaction style (as popularised by
SimPy): a *process* is a Python generator that yields :class:`Event`
objects; the simulator resumes the generator when the yielded event
triggers.  Virtual time only advances between events — the Python code run
inside a process is free (it models zero-duration work such as real data
transformation whose *cost* is charged separately through timeouts).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*; it becomes *triggered* once
    :meth:`succeed` or :meth:`fail` is called, at which point it is placed
    on the simulator's queue and its callbacks run at the current virtual
    time.  Processes wait on events by yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        # A defused failure does not crash the simulation even when nothing
        # waits on it (used for interrupt delivery hooks).
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def ok(self) -> Optional[bool]:
        """True if the event succeeded, False if it failed, None if pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, for failed events)."""
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        self.sim._enqueue(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see ``exc`` raised."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() expects an exception instance")
        self._ok = False
        self._value = exc
        self._triggered = True
        self.sim._enqueue(self)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)

    def subscribe(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event fires.

        If the event has already been processed the callback runs
        immediately (same virtual time).
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.callbacks is None else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` units of virtual time in the future."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self._ok = True
        self._value = value
        self._triggered = True
        sim._enqueue(self, delay)


class Process(Event):
    """A running coroutine; also an event that fires when it terminates.

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event succeeds, the generator is resumed with the event's value; when
    it fails, the event's exception is thrown into the generator (so
    processes can ``try/except`` failures of sub-operations).

    A finished process triggers itself with the generator's return value;
    an uncaught exception inside the generator fails the process event and
    — if no other process is waiting on it — crashes the simulation (to
    avoid silently losing errors).
    """

    __slots__ = ("gen", "name", "_target", "group")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "",
                 group: Optional[set] = None):
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise TypeError(f"Process requires a generator, got {gen!r}")
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Optional[Event] = None
        if group is None and sim._active_process is not None:
            group = sim._active_process.group
        #: live processes of this one's owner (a job), left on termination
        self.group = group
        if group is not None:
            group.add(self)
        # Bootstrap: resume the generator at the current time.
        boot = Event(sim)
        boot._ok = True
        boot._triggered = True
        boot.subscribe(self._resume)
        sim._enqueue(boot)

    @property
    def is_alive(self) -> bool:
        """True while the process has not terminated."""
        return not self._triggered

    @property
    def is_blocked(self) -> bool:
        """Alive and waiting on an event that has not fired."""
        return self._target is not None and not self._target._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a terminated process is an error.  The event the
        process was waiting on remains pending; the process may re-wait on
        it after handling the interrupt.
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        hook = Event(self.sim)
        hook._ok = False
        hook._value = Interrupt(cause)
        hook._triggered = True
        hook._defused = True
        hook.subscribe(self._resume_interrupt)
        self.sim._enqueue(hook)

    # -- generator stepping ----------------------------------------------
    def _resume_interrupt(self, hook: Event) -> None:
        if self._triggered:  # terminated before the interrupt fired
            return
        # Detach from the event we were waiting on.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        self._step(throw=hook._value)

    def _resume(self, event: Event) -> None:
        if self._triggered:
            return
        self._target = None
        if event._ok:
            self._step(send=event._value)
        else:
            self._step(throw=event._value)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        sim = self.sim
        prev = sim._active_process
        sim._active_process = self
        try:
            if throw is not None:
                target = self.gen.throw(throw)
            else:
                target = self.gen.send(send)
        except StopIteration as stop:
            self._terminate(prev).succeed(stop.value)
            return
        except Interrupt as interrupt:
            # An unhandled interrupt terminates the process quietly.  Its
            # traceback would hold this frame and, up the stack, the hook
            # event holding the interrupt: a cycle through every frame
            # the interrupt unwound.
            interrupt.__traceback__ = None
            self._terminate(prev).succeed(None)
            return
        except BaseException as exc:
            self._terminate(prev).fail(exc)
            return
        sim._active_process = prev
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances (Timeout, Process, Resource.acquire(), ...)")
        if target.sim is not sim:
            raise SimulationError("yielded event belongs to a different simulator")
        self._target = target
        target.subscribe(self._resume)

    def _terminate(self, prev: Optional["Process"]) -> "Process":
        """Hand the simulator back to ``prev`` and leave the group."""
        self.sim._active_process = prev
        if self.group is not None:
            self.group.discard(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'done' if self._triggered else 'alive'}>"


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._count = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            ev.subscribe(self._check)

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when *all* constituent events have fired.

    Succeeds with the list of constituent values (in construction order).
    Fails as soon as any constituent fails.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed([ev._value for ev in self.events])


class AnyOf(_Condition):
    """Fires when the *first* constituent event fires.

    Succeeds with ``(index, value)`` of the first event; fails if the first
    event to fire failed.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed((self.events.index(event), event._value))


class Simulator:
    """Virtual clock and event queue.

    ``sim.process(gen)`` starts a generator that yields events;
    ``sim.run()`` moves the clock from event to event until none is left.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._active_process: Optional[Process] = None
        # Coalesced-timeout cache: delay -> shared Timeout, valid only for
        # the instant it was created at (see :meth:`shared_timeout`).
        self._shared_timeouts: dict[float, Timeout] = {}
        self._shared_at: float = -1.0

    # -- factory helpers --------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` virtual seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float) -> Event:
        """An event firing at exactly ``when`` (``timeout(when - now)``
        may round elsewhere), after the events already queued for then."""
        if when < self.now:
            raise ValueError(f"timeout_at({when!r}) is before now ({self.now!r})")
        ev = Event(self)
        ev._ok = True
        ev._triggered = True
        heapq.heappush(self._heap, (when, next(self._seq), ev))
        return ev

    def reschedule(self, event: Event, when: Optional[float]) -> None:
        """Move a queued ``event`` to ``when`` with a fresh sequence
        number, or off the queue if None.  A linear scan: for rare fixes."""
        heap = self._heap
        i = next(i for i, entry in enumerate(heap) if entry[2] is event)
        if when is None:
            heap[i] = heap[-1]
            heap.pop()
        else:
            heap[i] = (when, next(self._seq), event)
        heapq.heapify(heap)

    def shared_timeout(self, delay: float) -> Timeout:
        """A coalesced timeout: waiters created at the same instant with
        the same delay share one event (and one heap entry), resumed in
        subscription order — the order separate timeouts would give.  It
        carries no value and must not be failed or succeeded by callers.
        """
        if self._shared_at != self.now:
            self._shared_timeouts.clear()
            self._shared_at = self.now
        ev = self._shared_timeouts.get(delay)
        # A processed event would resume new waiters instantly (time
        # travel); only reuse while its callback list is still open.
        if ev is None or ev.callbacks is None:
            ev = Timeout(self, delay)
            self._shared_timeouts[delay] = ev
        return ev

    def process(self, gen: Generator, name: str = "",
                group: Optional[set] = None) -> Process:
        """Start ``gen`` as a process in ``group`` (default: the group of
        the process starting it); returns its completion event."""
        return Process(self, gen, name=name, group=group)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: every constituent has fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event: the first constituent fires."""
        return AnyOf(self, events)

    # -- queue machinery ---------------------------------------------------
    def _enqueue(self, event: Event, delay: float = 0.0) -> None:
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), event))

    def peek(self) -> float:
        """Virtual time of the next event, or ``inf`` if the queue is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("step() on empty event queue")
        t, _seq, event = heapq.heappop(self._heap)
        if t < self.now:
            raise SimulationError("time went backwards")
        self.now = t
        waited_on = event.callbacks  # capture before processing clears it
        event._run_callbacks()
        # A failed event that nobody handled is a lost error: surface it so
        # bugs inside pipeline processes become real test failures instead
        # of silently wrong timings.
        if event._ok is False and not waited_on and not event._defused:
            raise event._value

    def run(self) -> float:
        """Run until the queue drains.

        Returns the final virtual time.  Uncaught process failures re-raise
        here, so tests see real tracebacks.
        """
        while self._heap:
            self.step()
        return self.now
