"""The receiver calendar against the queue it replaced.

``QueuedNetwork`` keeps the transport as it was before receiver NICs
became calendars: every phase (TX grant, fabric grant, TX wire, latency,
RX grant, RX wire) waits on its own event, and the RX NIC is a FIFO
:class:`Resource`.  It is the event-level oracle: on continuous draws,
where no two events coincide by accident, :class:`Network` must give the
same completions, spans and wait edges, interrupts included.  On dyadic
draws exact ties are common and the two may order same-instant events
differently (the tie rule in ``repro.net.transport``), so there the
calendar is held to the invariants of a store-and-forward network.
"""

import math
from collections import defaultdict

from hypothesis import example, given, settings, strategies as st

import pytest

from repro.hw.specs import NetworkSpec
from repro.net import Network
from repro.net.transport import TrafficMeter
from repro.simt import Interrupt, Resource, Simulator
from repro.simt.trace import Timeline


class QueuedNetwork:
    """The per-phase transport: one event per grant and per timer."""

    def __init__(self, sim, spec, n_nodes, timeline=None):
        self.sim = sim
        self.spec = spec
        self.timeline = timeline
        self._tx = [Resource(sim, 1, name=f"nic{t}.tx") for t in range(n_nodes)]
        self._rx = [Resource(sim, 1, name=f"nic{r}.rx") for r in range(n_nodes)]
        self._fabric = Resource(sim, max(1, int(n_nodes * spec.bisection_factor)),
                                name="fabric")
        self.bytes_moved = 0
        self._seq = 0

    @staticmethod
    def _endpoint_alive(node, meter):
        health = meter.health if meter is not None else None
        return health is None or health.alive(node)

    def send(self, src, dst, nbytes, meter=None):
        if not self._endpoint_alive(dst, meter):
            return False
        if src == dst or nbytes == 0:
            return True
        return (yield from self._wire(src, dst, nbytes, meter))

    def _wire(self, src, dst, nbytes, meter=None):
        start = self.sim.now
        wire_time = nbytes / self.spec.bandwidth
        tx_req = self._tx[src].acquire()
        try:
            yield tx_req
        except Interrupt:
            self._tx[src].cancel(tx_req)
            raise
        tx_wait = self.sim.now - start
        t_fab = self.sim.now
        fab_req = self._fabric.acquire()
        try:
            yield fab_req
        except Interrupt:
            self._fabric.cancel(fab_req)
            self._tx[src].release()
            raise
        fabric_wait = self.sim.now - t_fab
        try:
            yield self.sim.shared_timeout(wire_time)
        finally:
            self._tx[src].release()
            self._fabric.release()
        yield self.sim.shared_timeout(self.spec.latency)
        t_rx = self.sim.now
        rx_req = self._rx[dst].acquire()
        try:
            yield rx_req
        except Interrupt:
            self._rx[dst].cancel(rx_req)
            raise
        rx_wait = self.sim.now - t_rx
        try:
            yield self.sim.shared_timeout(wire_time)
        finally:
            self._rx[dst].release()
        delivered = self._endpoint_alive(dst, meter)
        self.bytes_moved += nbytes
        timeline = self.timeline
        if meter is not None:
            meter.bytes_moved += nbytes
            meter.transfers += 1
            if meter.timeline is not None:
                timeline = meter.timeline
        if timeline is not None:
            self._seq += 1
            op = self._seq
            link = f"{src}->{dst}"
            timeline.record("net.transfer", link,
                            start, self.sim.now, bytes=nbytes,
                            delivered=delivered, tx_wait=tx_wait,
                            fabric_wait=fabric_wait, rx_wait=rx_wait,
                            op=op)
            timeline.record_wait("shuffle-link", self._tx[src].name,
                                 "net.transfer", link,
                                 start, start + tx_wait, op=op)
            timeline.record_wait("shuffle-link", self._fabric.name,
                                 "net.transfer", link,
                                 t_fab, t_fab + fabric_wait, op=op)
            timeline.record_wait("shuffle-link", self._rx[dst].name,
                                 "net.transfer", link,
                                 t_rx, t_rx + rx_wait, op=op)
        return delivered


class _Health:
    """A liveness view in which node ``n`` dies at ``deaths[n]``."""

    def __init__(self, sim, deaths):
        self.sim = sim
        self.deaths = deaths

    def alive(self, node):
        return self.sim.now < self.deaths.get(node, float("inf"))


def _drive(network_cls, spec, n_nodes, senders, kills, deaths):
    """Run ``senders`` — ``(src, start, [(dst, nbytes), ...])``, each
    sending back to back — with ``kills`` — ``(sender, time after its
    start)``; returns what the run observably did."""
    sim = Simulator()
    timeline = Timeline()
    net = network_cls(sim, spec, n_nodes, timeline=timeline)
    meter = TrafficMeter(health=_Health(sim, deaths))
    completions = []

    def sender(i, src, start, messages):
        if start:
            yield sim.timeout(start)
        for k, (dst, nbytes) in enumerate(messages):
            try:
                delivered = yield from net.send(src, dst, nbytes, meter=meter)
            except Interrupt:
                completions.append((i, k, "killed", sim.now))
                return
            completions.append((i, k, delivered, sim.now))

    procs = [sim.process(sender(i, *s)) for i, s in enumerate(senders)]

    def killer(i, at):
        yield sim.timeout(at)
        if procs[i].is_alive:
            procs[i].interrupt("killed")

    for i, after in kills:
        i %= len(senders)
        sim.process(killer(i, senders[i][1] + after))
    drained_at = sim.run()
    assert all(nic.in_use == 0 for nic in net._tx)
    assert net._fabric.in_use == 0
    if isinstance(net, Network):
        assert all(not calendar for calendar in net._calendars)
    return {
        "drained_at": drained_at,
        "completions": completions,
        "bytes": (net.bytes_moved, meter.bytes_moved, meter.transfers),
        "spans": [(s.category, s.name, s.start, s.end, s.meta)
                  for s in timeline.spans],
        "waits": [(w.wait_class, w.resource, w.category, w.name, w.start,
                   w.end, w.meta) for w in timeline.waits],
    }


def _schedules(n_nodes, sizes, times, kill_times):
    node = st.integers(min_value=0, max_value=n_nodes - 1)
    # Half the messages go to node 0, so receivers queue (incast).
    message = st.tuples(st.one_of(st.just(0), node), sizes)
    sender = st.tuples(node, times, st.lists(message, min_size=1, max_size=5))
    kill = st.tuples(st.integers(min_value=0, max_value=5), kill_times)
    return st.tuples(
        st.lists(sender, min_size=1, max_size=6),
        st.lists(kill, max_size=5),
        st.dictionaries(node, times, max_size=1))


# Enough for the 6 x 5 messages of the largest schedule.
_PRIMES = [p for p in range(2, 200) if all(p % d for d in range(2, p))]


@st.composite
def _continuous(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=6))
    bisection = draw(st.floats(min_value=0.3, max_value=1.0))
    spec = NetworkSpec(name="qdr-like", bandwidth=1.2e9, latency=30e-6,
                       bisection_factor=bisection)
    # Times in the span of a few transfers (<= 167 us of wire each).
    times = st.floats(min_value=0.0, max_value=4e-4, allow_nan=False)
    # Never at the instant a sender starts: that is a tie (a free grant
    # takes no event, so the kill finds the send already on the wire).
    kill_times = st.integers(min_value=1, max_value=999).map(
        lambda k: k * 4.0007e-7)
    sizes = st.integers(min_value=1, max_value=200_000)
    senders, kills, deaths = draw(_schedules(n_nodes, sizes, times,
                                             kill_times))
    # Whole byte counts are not continuous: 1 + 1 bytes end where 2 do,
    # and 36,001 bytes where 30 us of latency and 1 byte do.  Each
    # message gets the fraction of a different prime's square root, so
    # no sum of wire times and latencies equals another.
    fractions = (math.sqrt(p) % 1 for p in _PRIMES)
    senders = [(src, start, [(dst, n + next(fractions)) for dst, n in messages])
               for src, start, messages in senders]
    return spec, n_nodes, senders, kills, deaths


@st.composite
def _dyadic(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=6))
    bisection = draw(st.sampled_from([0.3, 0.5, 0.75, 1.0]))
    spec = NetworkSpec(name="dyadic", bandwidth=1024.0, latency=0.25,
                       bisection_factor=bisection)
    times = st.integers(min_value=0, max_value=32).map(lambda k: k / 8)
    sizes = st.integers(min_value=1, max_value=8).map(lambda k: 256 * k)
    return (spec, n_nodes) + draw(_schedules(n_nodes, sizes, times, times))


@settings(max_examples=600, deadline=None)
@given(_continuous())
def test_calendar_equals_queue_on_continuous_draws(case):
    spec, n_nodes, senders, kills, deaths = case
    assert (_drive(Network, spec, n_nodes, senders, kills, deaths)
            == _drive(QueuedNetwork, spec, n_nodes, senders, kills, deaths))


def _served_in_order(holds):
    """``holds`` are ``(arrival, begin, end)`` on one server: FIFO in
    arrival order and never two at once."""
    holds = sorted(holds, key=lambda h: (h[1], h[0]))
    for (arr_a, _b, end_a), (arr_b, begin_b, _e) in zip(holds, holds[1:]):
        assert arr_a <= arr_b
        assert end_a <= begin_b


@settings(max_examples=300, deadline=None)
@given(_dyadic())
# Ties that whole byte counts make on otherwise continuous draws: node 1's
# TX frees in the instant node 2's first send is delivered (36,001 bytes
# against 30 us plus 1 byte); and, at a latency of 36,000.38 byte times,
# two deliveries end in one instant (1 + 1 bytes against 2).
@example((NetworkSpec(name="qdr-like", bandwidth=1.2e9, latency=30e-6,
                      bisection_factor=0.5), 3,
          [(0, 0.0, [(0, 1)]),
           (1, 0.00011268632156694596, [(0, 1), (0, 36001)]),
           (2, 0.0003814103760152419, [(0, 1), (0, 1)]),
           (1, 5.530652111103872e-05, [(0, 1), (0, 159661), (0, 1), (0, 1)])],
          [], {}))
@example((NetworkSpec(name="qdr-like", bandwidth=1.2e9,
                      latency=3.0000318305e-05, bisection_factor=0.5), 3,
          [(0, 0.0, [(0, 1)]),
           (2, 0.0003814103760152419, [(0, 1)]),
           (1, 0.00011268632156694596, [(0, 1), (2, 1)]),
           (1, 5.530652111103872e-05, [(0, 1), (0, 159660), (0, 2)])],
          [], {}))
def test_calendar_invariants_on_dyadic_draws(case):
    spec, n_nodes, senders, kills, deaths = case
    run = _drive(Network, spec, n_nodes, senders, kills, deaths)
    tx, rx, fabric = defaultdict(list), defaultdict(list), []
    for _cat, link, start, end, meta in run["spans"]:
        src, dst = map(int, link.split("->"))
        wire = meta["bytes"] / spec.bandwidth
        t_fab = start + meta["tx_wait"]
        t_wire = t_fab + meta["fabric_wait"]
        tx[src].append((start, t_fab, t_wire + wire))
        fabric.append((t_wire, t_wire + wire))
        rx[dst].append((end - wire - meta["rx_wait"], end - wire, end))
        assert end - start == pytest.approx(
            meta["tx_wait"] + meta["fabric_wait"] + meta["rx_wait"]
            + 2 * wire + spec.latency)
    for holds in list(tx.values()) + list(rx.values()):
        _served_in_order(holds)
    capacity = max(1, int(n_nodes * spec.bisection_factor))
    for begin, _end in fabric:
        assert sum(b <= begin < e for b, e in fabric) <= capacity
    moved = sum(meta["bytes"] for *_x, meta in run["spans"])
    assert run["bytes"] == (moved, moved, len(run["spans"]))
