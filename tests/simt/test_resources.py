"""Unit tests for Resource, Store and BufferPool."""

import pytest

from repro.simt import BufferPool, Resource, Simulator, Store
from repro.simt.core import SimulationError
from repro.simt.resources import StoreClosed


# ---------------------------------------------------------------- Resource
def test_resource_immediate_grant():
    sim = Simulator()
    res = Resource(sim, capacity=4)
    granted = []

    def proc(sim):
        yield res.acquire()
        granted.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert granted == [0.0]
    assert res.in_use == 1


def test_resource_queueing_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def worker(sim, name, hold):
        yield res.acquire()
        log.append(("start", name, sim.now))
        yield sim.timeout(hold)
        res.release()
        log.append(("end", name, sim.now))

    sim.process(worker(sim, "a", 2.0))
    sim.process(worker(sim, "b", 3.0))
    sim.run()
    assert log == [("start", "a", 0.0), ("end", "a", 2.0),
                   ("start", "b", 2.0), ("end", "b", 5.0)]


def test_try_acquire_takes_a_free_token_without_an_event():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    assert res.try_acquire() and res.try_acquire()
    assert res.in_use == 2
    assert not res.try_acquire()
    assert sim.peek() == float("inf")   # nothing was queued
    res.release()
    res.release()
    assert res.in_use == 0


def test_try_acquire_never_overtakes_a_waiter():
    """FIFO allows no overtaking: a released token goes to the oldest
    waiter, never to a later ``try_acquire``."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.acquire()
    waiter = res.acquire()
    assert held.triggered and not waiter.triggered
    assert not res.try_acquire()
    res.release()
    assert waiter.triggered
    assert not res.try_acquire()
    assert res.in_use == 1
    res.release()
    assert res.try_acquire()


def test_resource_over_release_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_token_conservation():
    sim = Simulator()
    res = Resource(sim, capacity=8)

    def worker(sim, hold):
        yield res.acquire()
        assert 0 < res.in_use <= res.capacity
        yield sim.timeout(hold)
        res.release()

    for i in range(20):
        sim.process(worker(sim, 1.0 + i * 0.1))
    sim.run()
    assert res.in_use == 0


# ------------------------------------------------------------------- Store
def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer(sim):
        yield store.put("x")

    def consumer(sim):
        item = yield store.get()
        got.append(item)

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim):
        item = yield store.get()
        got.append((sim.now, item))

    def producer(sim):
        yield sim.timeout(3.0)
        yield store.put("late")

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert got == [(3.0, "late")]


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer(sim):
        for i in range(5):
            yield store.put(i)

    def consumer(sim):
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_close_ends_consumers():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer(sim):
        yield store.put("only")
        store.close()

    def consumer(sim):
        while True:
            try:
                item = yield store.get()
            except StoreClosed:
                got.append("eof")
                return
            got.append(item)

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert got == ["only", "eof"]


def test_store_close_drains_remaining_items_first():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer(sim):
        yield store.put(1)
        yield store.put(2)
        store.close()

    def consumer(sim):
        yield sim.timeout(1.0)
        while True:
            try:
                got.append((yield store.get()))
            except StoreClosed:
                return

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert got == [1, 2]


def test_store_put_after_close_is_error():
    sim = Simulator()
    store = Store(sim)
    store.close()
    with pytest.raises(SimulationError):
        store.put("x")


# -------------------------------------------------------------- BufferPool
def test_buffer_pool_hands_out_distinct_slots():
    sim = Simulator()
    pool = BufferPool(sim, 3)
    slots = []

    def proc(sim):
        s = yield pool.acquire()
        slots.append(s)

    for _ in range(3):
        sim.process(proc(sim))
    sim.run()
    assert sorted(slots) == [0, 1, 2]
    assert pool.outstanding == pool.slots


def test_buffer_pool_blocks_when_exhausted():
    sim = Simulator()
    pool = BufferPool(sim, 1)
    log = []

    def first(sim):
        s = yield pool.acquire()
        yield sim.timeout(4.0)
        pool.release(s)

    def second(sim):
        s = yield pool.acquire()
        log.append((sim.now, s))
        pool.release(s)

    sim.process(first(sim))
    sim.process(second(sim))
    sim.run()
    assert log == [(4.0, 0)]


def test_buffer_pool_double_release_rejected():
    sim = Simulator()
    pool = BufferPool(sim, 2)

    def proc(sim):
        s = yield pool.acquire()
        pool.release(s)
        with pytest.raises(SimulationError):
            pool.release(s)

    sim.process(proc(sim))
    sim.run()


def test_buffer_pool_single_slot_serializes():
    """One buffer slot = the single-buffering interlock of the paper."""
    sim = Simulator()
    pool = BufferPool(sim, 1)
    intervals = []

    def stagework(sim, dur):
        s = yield pool.acquire()
        start = sim.now
        yield sim.timeout(dur)
        pool.release(s)
        intervals.append((start, sim.now))

    for _ in range(3):
        sim.process(stagework(sim, 2.0))
    sim.run()
    # No overlap between any pair of intervals.
    for (s1, e1) in intervals:
        for (s2, e2) in intervals:
            if (s1, e1) != (s2, e2):
                assert e1 <= s2 or e2 <= s1
