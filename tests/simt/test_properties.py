"""Property-based tests on the simulation primitives (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.hw.cpu import FluidCPU
from repro.simt import Resource, Simulator, Store


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=8),
                          st.floats(min_value=0.01, max_value=5.0),
                          st.floats(min_value=0.0, max_value=3.0)),
                min_size=1, max_size=12),
       st.integers(min_value=1, max_value=8))
def test_fluid_cpu_work_conservation(tasks, capacity):
    """Total work / makespan never exceeds capacity, and every task's
    elapsed time is at least its ideal (work / min(threads, capacity))."""
    sim = Simulator()
    cpu = FluidCPU(sim, capacity)
    finishes = {}

    def proc(sim, i, threads, work, delay):
        if delay:
            yield sim.timeout(delay)
        start = sim.now
        yield cpu.run(threads, work)
        finishes[i] = (start, sim.now)

    for i, (threads, work, delay) in enumerate(tasks):
        sim.process(proc(sim, i, threads, work, delay))
    sim.run()

    assert len(finishes) == len(tasks)
    total_work = sum(w for _, w, _ in tasks)
    makespan = max(end for _, end in finishes.values())
    busy_window = makespan - min(start for start, _ in finishes.values())
    assert total_work <= capacity * busy_window + 1e-6
    for i, (threads, work, _delay) in enumerate(tasks):
        start, end = finishes[i]
        ideal = work / min(threads, capacity)
        assert end - start >= ideal - 1e-9


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=40),
       st.floats(min_value=0.0, max_value=1.0))
def test_store_preserves_order_and_items(items, consumer_delay):
    """Everything put into a store comes out once, in order, whether the
    consumer waits for items or finds them queued."""
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer(sim):
        for item in items:
            yield store.put(item)
            yield sim.timeout(0.1)
        store.close()

    def consumer(sim):
        from repro.simt.resources import StoreClosed
        yield sim.timeout(consumer_delay)
        while True:
            try:
                got.append((yield store.get()))
            except StoreClosed:
                return

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert got == items


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                          st.floats(min_value=0.01, max_value=1.0)),
                min_size=1, max_size=15),
       st.integers(min_value=1, max_value=4))
def test_resource_never_oversubscribed(holds, capacity):
    """At no point do ``take()`` holds exceed the capacity, and every
    holder gets a token."""
    sim = Simulator()
    res = Resource(sim, capacity)
    violations = []
    done = []

    def worker(sim, delay, hold):
        yield sim.timeout(delay)
        yield from res.take()
        if res.in_use > res.capacity:
            violations.append(res.in_use)
        yield sim.timeout(hold)
        res.release()
        done.append(hold)

    for delay, hold in holds:
        sim.process(worker(sim, delay, hold))
    sim.run()
    assert not violations
    assert len(done) == len(holds)
    assert res.in_use == 0
