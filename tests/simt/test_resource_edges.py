"""Edge cases of the sync primitives: cancellation, close, invariants."""

from hypothesis import given, settings, strategies as st

from repro.simt import BufferPool, Resource, Simulator, Store
from repro.simt.resources import StoreClosed


# ---------------------------------------------------------- Resource.cancel
def test_cancel_of_queued_head_wakes_followers():
    """Cancelling a large head request must re-scan the FIFO: a smaller
    satisfiable waiter behind it would otherwise stay parked until the
    next release."""
    sim = Simulator()
    res = Resource(sim, capacity=4)
    held = res.acquire(3)
    assert held.triggered
    big = res.acquire(4)        # queued head (never satisfiable now)
    small = res.acquire(1)      # queued behind the head
    assert not big.triggered and not small.triggered
    res.cancel(big)
    assert small.triggered
    assert res.in_use == 4
    assert res.probe()["waiters"] == 0


def test_cancel_of_non_head_waiter_just_removes_it():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    res.acquire(2)
    first = res.acquire(2)
    second = res.acquire(1)
    res.cancel(second)
    assert res.probe()["waiters"] == 1
    assert not first.triggered
    res.release(2)
    assert first.triggered


def test_cancel_of_granted_request_releases_tokens():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    granted = res.acquire(2)
    waiter = res.acquire(1)
    assert granted.triggered and not waiter.triggered
    res.cancel(granted)
    assert waiter.triggered
    assert res.in_use == 1


def test_cancel_of_unknown_request_is_a_noop():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.acquire(1)
    from repro.simt.core import Event
    stray = Event(sim)          # never issued by this resource
    res.cancel(stray)
    assert res.in_use == 1


# ---------------------------------------------------------- Store.close
def test_store_close_with_items_still_queued():
    """close() is end-of-stream, not discard: buffered items drain first."""
    sim = Simulator()
    store = Store(sim)
    store.put("a")
    store.put("b")
    store.close()
    assert store.probe() == {"depth": 2, "capacity": None, "getters": 0,
                             "putters": 0, "closed": True}
    g1, g2, g3 = store.get(), store.get(), store.get()
    assert (g1.value, g2.value) == ("a", "b")
    assert not g3.ok and isinstance(g3.value, StoreClosed)


def test_store_close_with_putters_queued():
    """A bounded store's queued putters complete as getters drain, even
    after close — their data was accepted before end-of-stream."""
    sim = Simulator()
    store = Store(sim, capacity=1)
    p1 = store.put("a")
    p2 = store.put("b")         # over capacity: parked
    assert p1.triggered and not p2.triggered
    store.close()
    assert store.probe()["putters"] == 1
    assert store.get().value == "a"
    assert p2.triggered         # admitted by the freed slot
    assert store.get().value == "b"
    assert not store.get().ok


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
@given(st.lists(st.tuples(st.sampled_from(["acquire", "cancel", "release"]),
                          st.integers(min_value=1, max_value=4)),
                max_size=40))
def test_resource_token_conservation(ops):
    """Under any acquire/cancel/release interleaving: tokens in use equal
    the sum of live grants, occupancy never exceeds capacity, and
    ``probe()`` counts exactly the requests not yet granted."""
    sim = Simulator()
    res = Resource(sim, capacity=4)
    issued = []                 # (event, n) not yet released/cancelled
    for op, n in ops:
        if op == "acquire":
            issued.append((res.acquire(n), n))
        elif op == "cancel":
            queued = [(ev, k) for ev, k in issued if not ev.triggered]
            if queued:
                res.cancel(queued[0][0])
                issued.remove(queued[0])
        else:
            granted = [(ev, k) for ev, k in issued if ev.triggered]
            if granted:
                ev, k = granted[0]
                res.release(k)
                issued.remove((ev, k))
        held = sum(k for ev, k in issued if ev.triggered)
        assert res.in_use == held
        assert 0 <= res.in_use <= res.capacity
        snap = res.probe()
        assert snap["waiters"] == \
            sum(1 for ev, _k in issued if not ev.triggered)
        assert snap["in_use"] == res.in_use
        assert snap["capacity"] == res.capacity


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(["put", "get"]), max_size=40),
       st.integers(min_value=1, max_value=3))
def test_store_probe_matches_model(ops, capacity):
    """A bounded store's probe() mirrors a plain deque model, and queued
    getters and putters are never simultaneously nonzero."""
    sim = Simulator()
    store = Store(sim, capacity=capacity)
    model = []                  # accepted-but-unread items (FIFO)
    pending_puts = []
    pending_gets = []
    seq = 0
    for op in ops:
        if op == "put":
            ev = store.put(seq)
            if pending_gets:
                assert pending_gets.pop(0).value == seq
            elif len(model) < capacity:
                model.append(seq)
            else:
                pending_puts.append((ev, seq))
            seq += 1
        else:
            ev = store.get()
            if model:
                assert ev.value == model.pop(0)
                if pending_puts:
                    _pev, item = pending_puts.pop(0)
                    model.append(item)
            elif pending_puts:
                _pev, item = pending_puts.pop(0)
                assert ev.value == item
            else:
                pending_gets.append(ev)
        snap = store.probe()
        assert snap["depth"] == len(store) == len(model)
        assert snap["getters"] == len(pending_gets)
        assert snap["putters"] == len(pending_puts)
        assert not (snap["getters"] and snap["putters"])
