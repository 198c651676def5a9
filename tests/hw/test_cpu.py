"""Tests for the fluid processor-sharing CPU model."""

import pytest

from repro.hw.cpu import FluidCPU
from repro.simt import Simulator


def run_tasks(capacity, tasks):
    """Run (threads, thread_seconds) tasks; return dict name -> finish time."""
    sim = Simulator()
    cpu = FluidCPU(sim, capacity)
    finishes = {}

    def proc(sim, name, threads, work, delay):
        if delay:
            yield sim.timeout(delay)
        yield cpu.run(threads, work)
        finishes[name] = sim.now

    for (name, threads, work, *rest) in tasks:
        delay = rest[0] if rest else 0.0
        sim.process(proc(sim, name, threads, work, delay))
    sim.run()
    return finishes


def test_single_task_full_speed():
    f = run_tasks(8, [("a", 4, 8.0)])
    # 8 thread-seconds over 4 threads on an idle 8-thread pool: 2 seconds.
    assert f["a"] == pytest.approx(2.0)


def test_task_rate_capped_by_own_threads():
    f = run_tasks(16, [("a", 2, 10.0)])
    # 2 threads can't use 16 cores: 5 seconds.
    assert f["a"] == pytest.approx(5.0)


def test_undersubscribed_tasks_do_not_interfere():
    f = run_tasks(8, [("a", 4, 4.0), ("b", 4, 8.0)])
    assert f["a"] == pytest.approx(1.0)
    assert f["b"] == pytest.approx(2.0)


def test_oversubscription_slows_everyone():
    # Two 8-thread tasks on an 8-thread pool: each runs at half speed.
    f = run_tasks(8, [("a", 8, 8.0), ("b", 8, 8.0)])
    assert f["a"] == pytest.approx(2.0)
    assert f["b"] == pytest.approx(2.0)


def test_proportional_share_under_oversubscription():
    # Demand = 12+4 = 16 on 8 threads: share factor 1/2.
    # a: rate 6 -> 12/6 = 2s ... but when b finishes rates change.
    # b: rate 2, work 2 -> finishes at t=1. Then a runs at 8 (capped by
    # capacity): remaining 12 - 6*1 = 6 -> 6/8 = 0.75 more seconds.
    f = run_tasks(8, [("a", 12, 12.0), ("b", 4, 2.0)])
    assert f["b"] == pytest.approx(1.0)
    assert f["a"] == pytest.approx(1.75)


def test_late_arrival_rebalances():
    # a alone for 1s at rate 8 (16 work -> 8 left). Then b arrives:
    # both 8-thread, share 4 each. b work 4 -> 1s... after that both at 4:
    # b finishes at t=2, a has 8-4=4 left, continues at 8 -> 0.5s.
    f = run_tasks(8, [("a", 8, 16.0), ("b", 8, 4.0, 1.0)])
    assert f["b"] == pytest.approx(2.0)
    assert f["a"] == pytest.approx(2.5)


def test_zero_work_completes_immediately():
    f = run_tasks(4, [("a", 2, 0.0)])
    assert f["a"] == 0.0


def test_invalid_arguments():
    sim = Simulator()
    cpu = FluidCPU(sim, 4)
    with pytest.raises(ValueError):
        cpu.run(0, 1.0)
    with pytest.raises(ValueError):
        cpu.run(1, -1.0)
    with pytest.raises(ValueError):
        FluidCPU(sim, 0)


def test_total_throughput_never_exceeds_capacity():
    """Aggregate completed work per elapsed time <= capacity."""
    cases = [
        (4, [("a", 4, 10.0), ("b", 4, 10.0), ("c", 2, 5.0)]),
        (8, [("x", 16, 8.0), ("y", 1, 1.0), ("z", 3, 9.0, 2.0)]),
    ]
    for capacity, tasks in cases:
        f = run_tasks(capacity, tasks)
        total_work = sum(t[2] for t in tasks)
        makespan = max(f.values())
        assert total_work <= capacity * makespan + 1e-6


def test_many_tasks_conservation():
    tasks = [(f"t{i}", (i % 3) + 1, 1.0 + 0.5 * i, 0.1 * i) for i in range(12)]
    f = run_tasks(6, tasks)
    assert len(f) == 12
    # Work conservation: the pool is busy from t=0 (task t0 arrives then),
    # so makespan >= total_work / capacity.
    total_work = sum(1.0 + 0.5 * i for i in range(12))
    assert max(f.values()) >= total_work / 6 - 1e-9


def test_demand_accounting():
    sim = Simulator()
    cpu = FluidCPU(sim, 8)

    def proc(sim):
        ev = cpu.run(3, 6.0)
        assert cpu.demand == 3
        yield ev
        assert cpu.demand == 0

    sim.process(proc(sim))
    sim.run()
