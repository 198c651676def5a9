"""Synchronisation primitives: token pools, channels, buffer pools.

These model the contended resources of a cluster node:

* :class:`Resource` — a FCFS pool of identical tokens.  CPU hardware
  threads are the canonical instance: map-kernel worker threads,
  partitioner threads and merger threads all draw from one pool, so the
  paper's contention effects (single- vs double-buffering, GPU freeing the
  host cores) emerge from queueing rather than hand-coded penalties.
* :class:`Store` — FIFO channel with optional capacity; pipeline stages
  are connected by stores.
* :class:`BufferPool` — a pool of indexed buffers; the Glasswing pipeline's
  single/double/triple buffering is a :class:`BufferPool` of 1/2/3 slots
  shared by a stage group.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.simt.core import Event, SimulationError, Simulator

__all__ = ["Resource", "Store", "BufferPool"]


class Resource:
    """FCFS pool of ``capacity`` identical tokens.

    ``acquire(n)`` returns an event that fires once ``n`` tokens are
    granted; ``release(n)`` returns them.  Requests are strictly FIFO: a
    large request at the head blocks later small ones (no starvation).
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: Deque[tuple[Event, int]] = deque()

    @property
    def available(self) -> int:
        """Tokens currently free."""
        return self.capacity - self.in_use

    def acquire(self, n: int = 1) -> Event:
        """Request ``n`` tokens; the returned event fires once granted."""
        if n < 1 or n > self.capacity:
            raise ValueError(
                f"cannot acquire {n} tokens from {self.name!r} "
                f"(capacity {self.capacity})")
        ev = Event(self.sim)
        if not self._waiters and self.available >= n:
            self.in_use += n
            ev.succeed(n)
        else:
            self._waiters.append((ev, n))
        return ev

    def try_acquire(self) -> bool:
        """Take one token now, without an event, if :meth:`acquire` would
        grant it at once; False while anyone waits (no overtaking)."""
        if self._waiters or self.in_use >= self.capacity:
            return False
        self.in_use += 1
        return True

    def release(self, n: int = 1) -> None:
        """Return ``n`` tokens and wake queued requests in FIFO order."""
        if n < 1 or n > self.in_use:
            raise SimulationError(
                f"release({n}) on {self.name!r} with {self.in_use} in use")
        self.in_use -= n
        self._grant_waiters()

    def _grant_waiters(self) -> None:
        while self._waiters:
            ev, want = self._waiters[0]
            if self.available < want:
                break
            self._waiters.popleft()
            self.in_use += want
            ev.succeed(want)

    def cancel(self, request: Event) -> None:
        """Withdraw an ``acquire`` request that will never be consumed.

        Interrupted processes (a crashed node, a killed speculative task)
        call this from their ``except Interrupt`` handlers: a request
        still queued is removed; one already granted is released — either
        way the tokens cannot leak into a dead process and wedge the
        resource for every later user.
        """
        for i, (ev, _want) in enumerate(self._waiters):
            if ev is request:
                del self._waiters[i]
                # The head request may have been the only thing holding
                # back smaller ones behind it (FIFO, no overtaking) —
                # removing it must re-run the grant scan or a satisfiable
                # waiter stays parked until the next release.
                if i == 0:
                    self._grant_waiters()
                return
        if request.triggered and request.ok:
            self.release(request.value)

    def probe(self) -> dict:
        """Occupancy snapshot for telemetry samplers (dependency-free)."""
        return {"capacity": self.capacity, "in_use": self.in_use,
                "waiters": len(self._waiters)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Resource {self.name!r} {self.in_use}/{self.capacity} "
                f"({len(self._waiters)} waiting)>")


class Store:
    """FIFO channel of items with optional capacity.

    ``put(item)`` returns an event that fires once the item is accepted
    (immediately when unbounded or below capacity); ``get()`` returns an
    event that fires with the next item.  A ``None`` capacity means
    unbounded.  Closing a store makes further ``get``s fail with
    :class:`StoreClosed` once drained, which lets downstream pipeline
    stages terminate cleanly.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = "store"):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Offer ``item``; event fires when the store accepts it."""
        if self._closed:
            raise SimulationError(f"put() on closed store {self.name!r}")
        ev = Event(self.sim)
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed(None)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed(None)
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """Take the next item; event fires with the item.

        If the store is closed and empty the event fails with
        :class:`StoreClosed`.
        """
        ev = Event(self.sim)
        if self._items:
            item = self._items.popleft()
            ev.succeed(item)
            # Space freed: admit a queued putter.
            if self._putters:
                pev, pitem = self._putters.popleft()
                self._items.append(pitem)
                pev.succeed(None)
        elif self._putters:
            pev, pitem = self._putters.popleft()
            ev.succeed(pitem)
            pev.succeed(None)
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
        while self._getters and not self._items:
            self._getters.popleft().fail(StoreClosed(self.name))

    def probe(self) -> dict:
        """Occupancy snapshot for telemetry samplers (dependency-free)."""
        return {"depth": len(self._items), "capacity": self.capacity,
                "getters": len(self._getters), "putters": len(self._putters),
                "closed": self._closed}

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
        """Withdraw an :meth:`acquire` request that will never be consumed.

        Mirrors :meth:`Resource.cancel`: an interrupted pipeline stage
        calls this from its ``except Interrupt`` handler so a queued
        request is removed and an already-granted slot returns to the
        pool instead of leaking into a dead process.
        """
        for i, ev in enumerate(self._waiters):
            if ev is request:
                del self._waiters[i]
                return
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
