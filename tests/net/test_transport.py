"""Tests for the network transport model (store-and-forward phases)."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.hw.specs import NetworkSpec
from repro.net import Network
from repro.net.transport import TrafficMeter
from repro.simt import Interrupt, Simulator

FAST = NetworkSpec(name="test", bandwidth=100e6, latency=0.001)
# One 100 MB transfer: 1 s TX serialisation + 1 ms latency + 1 s RX.
ONE = 2.0 + 0.001


def test_single_transfer_time():
    sim = Simulator()
    net = Network(sim, FAST, 2)
    meter = TrafficMeter()

    def proc(sim):
        yield from net.send(0, 1, 100_000_000, meter=meter)

    sim.process(proc(sim))
    sim.run()
    assert sim.now == pytest.approx(ONE)
    assert net.bytes_moved == meter.bytes_moved == 100_000_000
    assert meter.transfers == 1


def test_same_node_send_is_free():
    sim = Simulator()
    net = Network(sim, FAST, 2)

    def proc(sim):
        yield from net.send(1, 1, 10**9)
        yield sim.timeout(0)

    sim.process(proc(sim))
    sim.run()
    assert sim.now == 0.0
    assert net.bytes_moved == 0


def test_sender_nic_serializes_outgoing():
    sim = Simulator()
    net = Network(sim, FAST, 3)
    ends = []

    def proc(sim, dst):
        yield from net.send(0, dst, 100_000_000)
        ends.append(sim.now)

    sim.process(proc(sim, 1))
    sim.process(proc(sim, 2))
    sim.run()
    # TX phases serialise on node 0's NIC (1 s each); RX phases then run
    # on distinct receivers.
    assert sorted(ends)[0] == pytest.approx(ONE)
    assert sorted(ends)[1] == pytest.approx(ONE + 1.0)


def test_receiver_nic_serializes_incoming():
    """Incast: two senders into one receiver serialise on its RX NIC."""
    sim = Simulator()
    net = Network(sim, FAST, 3)
    ends = []

    def proc(sim, src):
        yield from net.send(src, 2, 100_000_000)
        ends.append(sim.now)

    sim.process(proc(sim, 0))
    sim.process(proc(sim, 1))
    sim.run()
    # Both TX phases overlap (distinct senders); RX delivery serialises.
    assert sorted(ends)[0] == pytest.approx(ONE)
    assert sorted(ends)[1] == pytest.approx(ONE + 1.0)


def test_disjoint_transfers_run_in_parallel():
    sim = Simulator()
    net = Network(sim, FAST, 4)
    ends = []

    def proc(sim, src, dst):
        yield from net.send(src, dst, 100_000_000)
        ends.append(sim.now)

    sim.process(proc(sim, 0, 1))
    sim.process(proc(sim, 2, 3))
    sim.run()
    assert ends == [pytest.approx(ONE), pytest.approx(ONE)]


def test_no_convoy_across_receivers():
    """A transfer queued at a busy receiver must not block its sender's
    NIC for other destinations (regression for the convoy collapse)."""
    sim = Simulator()
    net = Network(sim, FAST, 4)
    ends = {}

    def send(sim, name, src, dst, nbytes, delay=0.0):
        if delay:
            yield sim.timeout(delay)
        yield from net.send(src, dst, nbytes)
        ends[name] = sim.now

    # Background flow into node 1: TX [0, 1], RX delivery [1.001, 2.001].
    sim.process(send(sim, "bg", 2, 1, 100_000_000))
    # During the busy RX window node 0 sends a tiny message to node 1
    # (queues at rx1) and then one to node 3 — which must not be blocked.
    sim.process(send(sim, "to1", 0, 1, 1_000, delay=1.05))
    sim.process(send(sim, "to3", 0, 3, 1_000, delay=1.06))
    sim.run()
    assert ends["to3"] < 1.2
    assert ends["to1"] > 2.0  # it queued behind the background delivery


def test_concurrent_same_pair_transfers_serialize():
    sim = Simulator()
    net = Network(sim, FAST, 2)
    ends = []

    def proc(sim):
        yield from net.send(0, 1, 50_000_000)
        ends.append(sim.now)

    for _ in range(4):
        sim.process(proc(sim))
    sim.run()
    assert len(ends) == 4
    # 4 x 0.5 s TX serialised, then the last RX delivery 0.5 s later.
    assert max(ends) == pytest.approx(4 * 0.5 + 0.001 + 0.5)


def test_bisection_limits_aggregate():
    sim = Simulator()
    spec = NetworkSpec(name="thin", bandwidth=100e6, latency=0.0,
                       bisection_factor=0.5)
    net = Network(sim, spec, 4)  # fabric = 2 link slots
    ends = []

    def proc(sim, src, dst):
        yield from net.send(src, dst, 100_000_000)
        ends.append(sim.now)

    # Three disjoint pairs but only 2 fabric slots: one TX phase waits.
    sim.process(proc(sim, 0, 1))
    sim.process(proc(sim, 2, 3))
    sim.process(proc(sim, 1, 0))
    sim.run()
    assert sorted(ends)[-1] == pytest.approx(3.0)


def test_bad_node_ids_rejected():
    sim = Simulator()
    net = Network(sim, FAST, 2)

    def proc(sim):
        yield from net.send(0, 5, 10)

    sim.process(proc(sim))
    with pytest.raises(ValueError):
        sim.run()


# -- interrupts on the receiver calendar ------------------------------------
# 100 B/s NICs and 0.5 s latency on 4 nodes.  A sends 100 B 0->2 at t=0
# (TX [0, 1], arrives 1.5); B sends 50 B 1->2 at t=0.9 (TX [0.9, 1.4],
# arrives 1.9); C, where present, sends 80 B 3->2 at t=0 (arrives 1.3).
# The expected ends are what a FIFO queue at rx2 gives when A's sender is
# killed in each phase: a withdrawn request, or a holder releasing early.
SLOW = NetworkSpec(name="slow", bandwidth=100.0, latency=0.5,
                   bisection_factor=1.0)


def _incast(kill_a_at=None, with_c=False):
    sim = Simulator()
    net = Network(sim, SLOW, 4)
    ends = {}

    def send(name, src, nbytes, at):
        if at:
            yield sim.timeout(at)
        try:
            yield from net.send(src, 2, nbytes)
        except Interrupt:
            ends[name] = "killed"
            return
        ends[name] = sim.now

    a = sim.process(send("A", 0, 100, 0.0))
    sim.process(send("B", 1, 50, 0.9))
    if with_c:
        sim.process(send("C", 3, 80, 0.0))
    if kill_a_at is not None:
        def killer():
            yield sim.timeout(kill_a_at)
            a.interrupt()
        sim.process(killer())
    sim.run()
    assert [nic.in_use for nic in net._tx] == [0] * 4
    assert net._fabric.in_use == 0
    assert all(not calendar for calendar in net._calendars)
    return ends


def test_incast_without_interrupt():
    assert _incast() == {"A": pytest.approx(2.5), "B": pytest.approx(3.0)}
    assert _incast(with_c=True) == {"A": pytest.approx(3.1),
                                    "B": pytest.approx(3.6),
                                    "C": pytest.approx(2.1)}


@pytest.mark.parametrize("kill_at,phase", [(0.5, "tx hold"),
                                           (1.2, "latency")])
def test_sender_killed_before_arrival_books_nothing(kill_at, phase):
    ends = _incast(kill_a_at=kill_at)
    assert ends == {"A": "killed", "B": pytest.approx(2.4)}, phase


def test_sender_killed_while_holding_rx_frees_it_at_once():
    ends = _incast(kill_a_at=2.0)
    assert ends == {"A": "killed", "B": pytest.approx(2.5)}


def test_sender_killed_while_queued_at_rx_is_withdrawn():
    # C holds rx2 over [1.3, 2.1]; A queued behind it is withdrawn at 1.8,
    # so B is granted when C finishes.
    ends = _incast(kill_a_at=1.8, with_c=True)
    assert ends == {"A": "killed", "B": pytest.approx(2.6),
                    "C": pytest.approx(2.1)}


def test_sender_killed_while_holding_rx_behind_another():
    # A holds rx2 from 2.1 (after C); cut short at 2.5, B starts then.
    ends = _incast(kill_a_at=2.5, with_c=True)
    assert ends == {"A": "killed", "B": pytest.approx(3.0),
                    "C": pytest.approx(2.1)}


def test_killed_sender_leaves_no_event_past_its_phase():
    """A killed transfer leaves behind only the timer a per-phase wait
    would have: killed in flight, the heap drains at its arrival time."""
    sim = Simulator()
    net = Network(sim, SLOW, 4)

    def send():
        yield from net.send(0, 2, 100)

    proc = sim.process(send())

    def killer():
        yield sim.timeout(1.2)
        proc.interrupt()
    sim.process(killer())
    assert sim.run() == pytest.approx(1.5)


# -- import order ----------------------------------------------------------

@pytest.mark.parametrize("module", [
    "repro.net.transport", "repro.net", "repro.hw", "repro.simt.trace",
    "repro.obs.telemetry", "repro.obs.report"])
def test_module_can_be_the_first_import(module):
    """``net.transport`` used to import ``hw.specs`` at run time, and
    ``hw/__init__`` imports ``hw.node``, which imports ``net.transport``
    back: whoever imported the network first got an ImportError.  Only a
    fresh interpreter shows it — here ``repro.hw`` is long imported."""
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
