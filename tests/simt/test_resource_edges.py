"""Edge cases of the sync primitives: cancellation, close, invariants."""

from hypothesis import given, settings, strategies as st

from repro.simt import BufferPool, Interrupt, Resource, Simulator, Store
from repro.simt.resources import StoreClosed


# ---------------------------------------------------------- Resource.cancel
def test_cancel_of_non_head_waiter_just_removes_it():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.acquire()
    first = res.acquire()
    second = res.acquire()
    res.cancel(second)
    assert res.probe()["waiters"] == 1
    assert not first.triggered
    res.release()
    assert first.triggered


def test_cancel_of_granted_request_releases_tokens():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    granted = res.acquire()
    waiter = res.acquire()
    assert granted.triggered and not waiter.triggered
    res.cancel(granted)
    assert waiter.triggered
    assert res.in_use == 1


def test_cancel_of_unknown_request_is_a_noop():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.acquire()
    from repro.simt.core import Event
    stray = Event(sim)          # never issued by this resource
    res.cancel(stray)
    assert res.in_use == 1


# ---------------------------------------------------------- take()
def _interrupt_a_queued_taker(sim, pool, take, release):
    """A holder keeps the only token or slot for 2 s; a victim queued
    behind it is killed at t=1; a later waiter must get it at t=2."""
    log = []

    def holder(sim):
        held = yield from take()
        yield sim.timeout(2.0)
        release(held)

    def victim(sim):
        try:
            held = yield from take()
        except Interrupt:
            log.append(("killed", sim.now, pool.probe()["waiters"]))
            return
        log.append(("victim granted", sim.now))
        release(held)

    def follower(sim):
        held = yield from take()
        log.append(("granted", sim.now))
        release(held)

    def killer(sim, proc):
        yield sim.timeout(1.0)
        proc.interrupt("node crash")

    sim.process(holder(sim))
    doomed = sim.process(victim(sim))
    sim.process(follower(sim))
    sim.process(killer(sim, doomed))
    sim.run()
    # The victim's request is gone at once: only the follower still waits.
    assert log == [("killed", 1.0, 1), ("granted", 2.0)]
    assert pool.probe()["waiters"] == 0


def test_resource_take_interrupted_while_queued_leaks_nothing():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    _interrupt_a_queued_taker(sim, res, res.take, lambda _held: res.release())
    assert res.in_use == 0


def test_buffer_pool_take_interrupted_while_queued_leaks_no_slot():
    sim = Simulator()
    pool = BufferPool(sim, slots=1)
    _interrupt_a_queued_taker(sim, pool, pool.take, pool.release)
    assert pool.outstanding == 0
    assert pool.acquired == pool.released == 2


# ---------------------------------------------------------- Store.close
def test_store_close_with_items_still_queued():
    """close() is end-of-stream, not discard: buffered items drain first."""
    sim = Simulator()
    store = Store(sim)
    store.put("a")
    store.put("b")
    store.close()
    assert len(store) == 2
    g1, g2, g3 = store.get(), store.get(), store.get()
    assert (g1.value, g2.value) == ("a", "b")
    assert not g3.ok and isinstance(g3.value, StoreClosed)


def test_store_close_fails_waiting_getters():
    sim = Simulator()
    store = Store(sim)
    g = store.get()
    store.close()
    assert g.triggered and not g.ok


# ---------------------------------------------------------- BufferPool
def test_buffer_pool_probe_tracks_outstanding_and_waiters():
    sim = Simulator()
    pool = BufferPool(sim, slots=2)
    a = pool.acquire()
    b = pool.acquire()
    w = pool.acquire()
    assert pool.probe() == {"slots": 2, "in_use": 2, "waiters": 1}
    pool.release(a.value)
    assert w.triggered
    assert pool.probe() == {"slots": 2, "in_use": 2, "waiters": 0}
    pool.release(b.value)
    pool.release(w.value)
    assert pool.probe() == {"slots": 2, "in_use": 0, "waiters": 0}


# ---------------------------------------------------------- invariants
@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(["acquire", "cancel", "release"]),
                max_size=40),
       st.integers(min_value=1, max_value=3))
def test_resource_token_conservation(ops, capacity):
    """Under any acquire/cancel/release interleaving: tokens in use equal
    the live grants, occupancy never exceeds capacity, and ``probe()``
    counts exactly the requests not yet granted."""
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    issued = []                 # events not yet released/cancelled
    for op in ops:
        if op == "acquire":
            issued.append(res.acquire())
        elif op == "cancel":
            queued = [ev for ev in issued if not ev.triggered]
            if queued:
                res.cancel(queued[0])
                issued.remove(queued[0])
        else:
            granted = [ev for ev in issued if ev.triggered]
            if granted:
                res.release()
                issued.remove(granted[0])
        assert res.in_use == sum(1 for ev in issued if ev.triggered)
        assert 0 <= res.in_use <= res.capacity
        snap = res.probe()
        assert snap["waiters"] == sum(1 for ev in issued if not ev.triggered)
        assert snap["in_use"] == res.in_use
        assert snap["capacity"] == res.capacity
