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
from repro.simt import Simulator

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
    assert net.time_for(100_000_000) == pytest.approx(ONE)


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
