"""Unit tests for the discrete-event simulation core."""

import pytest

from repro.simt import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.5)
        return "done"

    p = sim.process(proc(sim))
    sim.run()
    assert sim.now == 2.5
    assert p.value == "done"
    assert not p.is_alive


def test_zero_delay_timeout():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(0.0)

    sim.process(proc(sim))
    sim.run()
    assert sim.now == 0.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_timeout_value_passed_to_process():
    sim = Simulator()
    seen = []

    def proc(sim):
        v = yield sim.timeout(1.0, value="payload")
        seen.append(v)

    sim.process(proc(sim))
    sim.run()
    assert seen == ["payload"]


def test_sequential_timeouts_accumulate():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)
        yield sim.timeout(3.0)

    sim.process(proc(sim))
    sim.run()
    assert sim.now == 6.0


def test_parallel_processes_overlap():
    sim = Simulator()
    log = []

    def proc(sim, name, delay):
        yield sim.timeout(delay)
        log.append((sim.now, name))

    sim.process(proc(sim, "b", 2.0))
    sim.process(proc(sim, "a", 1.0))
    sim.run()
    assert log == [(1.0, "a"), (2.0, "b")]
    assert sim.now == 2.0


def test_process_waits_on_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(5.0)
        return 42

    def parent(sim):
        result = yield sim.process(child(sim))
        return result * 2

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == 84
    assert sim.now == 5.0


def test_event_manual_trigger():
    sim = Simulator()
    gate = Event(sim)
    order = []

    def waiter(sim):
        v = yield gate
        order.append(("woke", v, sim.now))

    def opener(sim):
        yield sim.timeout(3.0)
        gate.succeed("open")

    sim.process(waiter(sim))
    sim.process(opener(sim))
    sim.run()
    assert order == [("woke", "open", 3.0)]


def test_event_double_trigger_is_error():
    sim = Simulator()
    ev = Event(sim)
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_failed_event_raises_in_waiter():
    sim = Simulator()
    gate = Event(sim)
    caught = []

    def waiter(sim):
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer(sim):
        yield sim.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    sim.process(waiter(sim))
    sim.process(failer(sim))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_propagates():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("oops")

    sim.process(bad(sim))
    with pytest.raises(ValueError, match="oops"):
        sim.run()


def test_handled_child_failure_does_not_crash():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("oops")

    def parent(sim):
        try:
            yield sim.process(bad(sim))
        except ValueError:
            return "handled"

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == "handled"


def test_all_of_waits_for_every_event():
    sim = Simulator()
    results = []

    def proc(sim):
        vals = yield sim.all_of([sim.timeout(1.0, "a"),
                                 sim.timeout(3.0, "b"),
                                 sim.timeout(2.0, "c")])
        results.append((sim.now, vals))

    sim.process(proc(sim))
    sim.run()
    assert results == [(3.0, ["a", "b", "c"])]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    done = []

    def proc(sim):
        vals = yield sim.all_of([])
        done.append(vals)

    sim.process(proc(sim))
    sim.run()
    assert done == [[]]


def test_any_of_fires_on_first():
    sim = Simulator()
    results = []

    def proc(sim):
        idx, val = yield sim.any_of([sim.timeout(5.0, "slow"),
                                     sim.timeout(1.0, "fast")])
        results.append((sim.now, idx, val))

    sim.process(proc(sim))
    sim.run()
    assert results == [(1.0, 1, "fast")]


def test_deterministic_tie_breaking():
    """Events at the same time fire in creation order."""
    sim = Simulator()
    log = []

    def proc(sim, name):
        yield sim.timeout(1.0)
        log.append(name)

    for name in ["a", "b", "c", "d"]:
        sim.process(proc(sim, name))
    sim.run()
    assert log == ["a", "b", "c", "d"]


def test_interrupt_delivers_cause():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as i:
            log.append((sim.now, i.cause))

    def interrupter(sim, victim):
        yield sim.timeout(2.0)
        victim.interrupt("wake up")

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == [(2.0, "wake up")]


def test_interrupt_finished_process_is_error():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    p = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_yield_non_event_is_error():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(SimulationError, match="yielded"):
        sim.run()


def test_process_return_value_is_event_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        return {"key": "value"}

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == {"key": "value"}


def test_timeout_at_refuses_the_past():
    sim = Simulator()
    sim.timeout(2.0)
    sim.run()
    with pytest.raises(ValueError):
        sim.timeout_at(1.5)
    assert sim.timeout_at(2.0).triggered


def test_timeout_at_fires_exactly_then_after_earlier_same_instant_events():
    """``now + (when - now)`` need not round to ``when``; the absolute
    timeout fires at ``when`` itself, behind every event already queued
    for that instant."""
    sim = Simulator()
    log = []
    now, when = 0.4011793528964003, 3.31860441219044
    assert now + (when - now) != when

    def early(sim):
        yield sim.timeout(when)
        log.append(("early", sim.now))

    def late(sim):
        yield sim.timeout(now)
        yield sim.timeout_at(when)
        log.append(("late", sim.now))

    sim.process(late(sim))
    sim.process(early(sim))
    sim.run()
    assert log == [("early", when), ("late", when)]


def test_reschedule_moves_or_drops_a_queued_event():
    sim = Simulator()
    fired = []
    moved, dropped = sim.timeout(5.0), sim.timeout(6.0)
    moved.subscribe(lambda ev: fired.append(sim.now))
    dropped.subscribe(lambda ev: fired.append("dropped"))
    sim.reschedule(moved, 2.0)
    sim.reschedule(dropped, None)
    assert sim.run() == 2.0
    assert fired == [2.0]


def test_peek_and_step():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(4.0)

    sim.process(proc(sim))
    assert sim.peek() == 0.0  # process bootstrap event
    sim.step()
    assert sim.peek() == 4.0
    sim.step()  # the timeout fires, generator finishes
    assert sim.now == 4.0
    sim.step()  # the process completion event itself
    assert sim.peek() == float("inf")


def test_step_on_empty_queue_is_error():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_nested_process_tree():
    sim = Simulator()

    def leaf(sim, d):
        yield sim.timeout(d)
        return d

    def branch(sim):
        total = 0
        for d in (1.0, 2.0):
            total += yield sim.process(leaf(sim, d))
        return total

    def root(sim):
        vals = yield sim.all_of([sim.process(branch(sim)),
                                 sim.process(branch(sim))])
        return sum(vals)

    p = sim.process(root(sim))
    sim.run()
    assert p.value == 6.0
    assert sim.now == 3.0  # two branches in parallel, each 3s sequential


def test_a_process_group_holds_exactly_the_live_processes():
    """A process joins the group it is given, else its spawner's, and
    leaves it when it returns, is interrupted or fails; a process stuck
    on an event nothing fires stays, blocked."""
    sim = Simulator()
    group: set = set()
    never = Event(sim)

    def child(kind):
        if kind == "fail":
            yield sim.timeout(1)
            raise ValueError("boom")
        yield never if kind == "stuck" else sim.timeout(1)

    def parent():
        kids = {k: sim.process(child(k), name=k)
                for k in ("done", "stuck", "fail", "cut")}
        assert set(kids.values()) < group
        kids["cut"].interrupt()
        try:
            yield kids["fail"]
        except ValueError:
            pass
        return kids

    root = sim.process(parent(), group=group)
    outsider = sim.process(child("done"))
    assert outsider.group is None and root in group
    sim.run()
    kids = root.value
    assert group == {kids["stuck"]}
    assert kids["stuck"].is_blocked and not root.is_blocked
