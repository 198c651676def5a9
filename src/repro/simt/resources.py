"""Synchronisation primitives: token pools, channels, buffer pools.

These model the contended resources of a cluster node:

* :class:`Resource` — a FCFS pool of identical tokens, held one at a
  time: a disk channel, a device's execution or DMA engine, a NIC, the
  fabric.
* :class:`Store` — unbounded FIFO channel; pipeline stages are connected
  by stores.
* :class:`BufferPool` — a pool of indexed buffers; the Glasswing pipeline's
  single/double/triple buffering is a :class:`BufferPool` of 1/2/3 slots
  shared by a stage group.

A process holds a token or a slot through ``yield from x.take()``, which
withdraws its request if the process is interrupted while queued, so a
crashed node or a killed speculative task can never leak one.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator

from repro.simt.core import Event, Interrupt, SimulationError, Simulator

__all__ = ["Resource", "Store", "BufferPool"]


class Resource:
    """FCFS pool of ``capacity`` identical tokens, taken one at a time.

    ``acquire()`` returns an event that fires once a token is granted;
    ``release()`` returns it, handing it straight to the oldest waiter.
    A request waits only while every token is in use.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def take(self) -> Generator:
        """Hold one token: ``yield from resource.take()``, then
        :meth:`release` it.

        A free token is taken without an event.  Otherwise the process
        queues through :meth:`acquire`; an :class:`Interrupt` while it is
        queued withdraws the request, so a killed process neither holds a
        token nor is granted one later.
        """
        if self.try_acquire():
            return
        request = self.acquire()
        try:
            yield request
        except Interrupt:
            self.cancel(request)
            raise

    def acquire(self) -> Event:
        """Request one token; the returned event fires once granted."""
        ev = Event(self.sim)
        if self.try_acquire():
            ev.succeed(None)
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Take one token now, without an event, if one is free.  While
        anyone waits every token is in use, so this never overtakes."""
        if self.in_use == self.capacity:
            return False
        self.in_use += 1
        return True

    def release(self) -> None:
        """Return a token; the oldest waiter, if any, is granted it."""
        if self.in_use == 0:
            raise SimulationError(f"release() on idle {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed(None)
        else:
            self.in_use -= 1

    def cancel(self, request: Event) -> None:
        """Withdraw an :meth:`acquire` request that will never be consumed:
        a request still queued is removed, one already granted is
        released."""
        try:
            self._waiters.remove(request)
        except ValueError:
            if request.triggered and request.ok:
                self.release()

    def probe(self) -> dict:
        """Occupancy snapshot for telemetry samplers (dependency-free)."""
        return {"capacity": self.capacity, "in_use": self.in_use,
                "waiters": len(self._waiters)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Resource {self.name!r} {self.in_use}/{self.capacity} "
                f"({len(self._waiters)} waiting)>")


class Store:
    """Unbounded FIFO channel of items.

    ``put(item)`` accepts the item at once and returns an event that has
    already fired; ``get()`` returns an event that fires with the next
    item.  Closing a store makes further ``get``s fail with
    :class:`StoreClosed` once drained, which lets downstream pipeline
    stages terminate cleanly.
    """

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Accept ``item``, handing it to the oldest waiting getter if any."""
        if self._closed:
            raise SimulationError(f"put() on closed store {self.name!r}")
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)
        return Event(self.sim).succeed(None)

    def get(self) -> Event:
        """Take the next item; event fires with the item.

        If the store is closed and empty the event fails with
        :class:`StoreClosed`.
        """
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        elif self._closed:
            ev.fail(StoreClosed(self.name))
        else:
            self._getters.append(ev)
        return ev

    def close(self) -> None:
        """Mark end-of-stream; pending and future gets on an empty store fail."""
        if self._closed:
            return
        self._closed = True
        while self._getters:
            self._getters.popleft().fail(StoreClosed(self.name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Store {self.name!r} len={len(self._items)} closed={self._closed}>"


class StoreClosed(Exception):
    """Raised by :meth:`Store.get` after the store closed and drained."""

    def __init__(self, name: str):
        super().__init__(f"store {name!r} closed")
        self.store_name = name


class BufferPool:
    """Pool of ``n`` indexed buffer slots with FIFO hand-out.

    Models the pipeline's data buffers: a stage group configured for
    double buffering shares a two-slot pool; the *input* stage acquires a
    slot, downstream stages pass it along, and the last stage of the group
    releases it.  Slot identity (the index) is preserved so traces can show
    which buffer a chunk occupied.
    """

    def __init__(self, sim: Simulator, slots: int, name: str = "buffers"):
        if slots < 1:
            raise ValueError("a buffer pool needs at least one slot")
        self.sim = sim
        self.name = name
        self.slots = slots
        self._free: Deque[int] = deque(range(slots))
        self._waiters: Deque[Event] = deque()
        #: monotonic grant/return counters (observability: a crashed
        #: pipeline that leaks a slot shows up as acquired > released)
        self.acquired = 0
        self.released = 0

    def take(self) -> Generator:
        """Hold one slot: ``slot = yield from pool.take()``, then
        :meth:`release` it.

        Unlike :meth:`Resource.take`, a free slot is still granted through
        an event: the stage yields to it, so stages resuming at the same
        instant keep their order.  An :class:`Interrupt` while queued
        withdraws the request, so no slot leaks into a dead process.
        """
        request = self.acquire()
        try:
            return (yield request)
        except Interrupt:
            self.cancel(request)
            raise

    def acquire(self) -> Event:
        """Event fires with a free slot index."""
        ev = Event(self.sim)
        if self._free:
            self.acquired += 1
            ev.succeed(self._free.popleft())
        else:
            self._waiters.append(ev)
        return ev

    def release(self, slot: int) -> None:
        """Return ``slot`` to the pool (hand it straight to a waiter if any)."""
        if not (0 <= slot < self.slots):
            raise SimulationError(f"unknown buffer slot {slot}")
        if slot in self._free:
            raise SimulationError(f"double release of buffer slot {slot}")
        self.released += 1
        if self._waiters:
            self.acquired += 1
            self._waiters.popleft().succeed(slot)
        else:
            self._free.append(slot)

    def cancel(self, request: Event) -> None:
        """Withdraw an :meth:`acquire` request that will never be consumed:
        a request still queued is removed, an already-granted slot
        returns to the pool."""
        try:
            self._waiters.remove(request)
        except ValueError:
            if request.triggered and request.ok:
                self.release(request.value)

    @property
    def outstanding(self) -> int:
        """Slots granted but not yet returned."""
        return self.slots - len(self._free)

    def probe(self) -> dict:
        """Occupancy snapshot for telemetry samplers (dependency-free)."""
        return {"slots": self.slots, "in_use": self.outstanding,
                "waiters": len(self._waiters)}


__all__.append("StoreClosed")
