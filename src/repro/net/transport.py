"""Point-to-point transfers over a modeled interconnect.

A transfer is store-and-forward: it serialises on the sender's TX NIC
(holding a fabric slot), crosses the wire in a constant ``spec.latency``,
then drains through the receiver's RX NIC, each NIC at ``bandwidth``.

The receiver NIC is a calendar, not a queue.  Every transfer pays the
same latency after its TX phase, so a receiver sees arrivals in TX-end
order: the sender books ``rx[dst]`` at its own TX end (``grant =
max(arrival, rx_free)``, ``end = grant + wire``) and waits on one event
at ``end`` — the grants a FIFO RX queue would make, as the same float
sums.  A transfer costs two events (TX end, delivery); a free NIC or
fabric token is taken without one.  Tie rules: the delivery event is
created at TX end, not at the grant, so at an instant it shares exactly
with other events it runs before those created after its TX end; and a
kill landing in the very instant a send starts finds it on the wire.

Fault semantics: transfers are interrupt-safe (a sender killed by a node
crash withdraws its queued NIC/fabric requests and its receiver booking —
the later bookings on that receiver are re-planned — instead of wedging
them), and when a send carries a :class:`TrafficMeter` with a
:class:`~repro.core.faults.ClusterHealth` view, data addressed to a dead
node is dropped — :meth:`Network.send` reports delivery, so shuffle data
in flight to (or from) a crashed node is lost exactly as on a real
cluster.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.simt.core import Event, Interrupt, Simulator
from repro.simt.resources import Resource
from repro.simt.trace import Timeline

if TYPE_CHECKING:   # annotations only; importing repro.hw here is a cycle
    from repro.hw.specs import NetworkSpec

__all__ = ["Network", "TrafficMeter"]


class TrafficMeter:
    """Per-tenant attribution of traffic on a shared fabric.

    A multi-job session runs many tenants over one :class:`Network`; the
    NICs and fabric slots stay shared (that is the contention being
    modelled) but each job needs its own byte accounting, its own
    ``net.transfer`` spans and its own liveness view.  A job threads its
    meter through every ``send`` it issues:

    * ``bytes_moved`` / ``transfers`` count only this tenant's traffic;
    * ``timeline``, when set, receives the transfer spans instead of the
      network's session timeline (a :class:`~repro.simt.trace.Timeline`
      fork forwards them to the session anyway, job-tagged);
    * ``health``, when set, is the liveness view deliveries obey, so a
      node that crashed *for this job* drops this job's deliveries while
      other tenants keep using it (executor-crash semantics).
    """

    __slots__ = ("timeline", "health", "bytes_moved", "transfers")

    def __init__(self, timeline: Optional[Timeline] = None, health=None):
        self.timeline = timeline
        self.health = health
        self.bytes_moved = 0
        self.transfers = 0


class Network:
    """Shared fabric connecting ``n`` nodes with full-duplex NICs.

    Each node has one TX and one RX channel at ``spec.bandwidth``; the
    fabric itself sustains ``bisection_factor * n * bandwidth`` aggregate,
    modeled as a pool of fabric slots.  Local (same-node) transfers are
    free of network time but still pay a memcpy at memory bandwidth — the
    caller decides whether to route locally.
    """

    def __init__(self, sim: Simulator, spec: NetworkSpec, n_nodes: int,
                 timeline: Optional[Timeline] = None):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.sim = sim
        self.spec = spec
        self.n_nodes = n_nodes
        self.timeline = timeline
        self._tx = [Resource(sim, 1, name=f"nic{t}.tx") for t in range(n_nodes)]
        # Receiver NICs are calendars (see the module docstring): the
        # bookings not yet delivered, in arrival order.
        self._calendars: list[deque] = [deque() for _ in range(n_nodes)]
        # Fabric capacity in whole-link units; >= 1 so a 1-node "cluster"
        # still works.
        fabric_links = max(1, int(n_nodes * spec.bisection_factor))
        self._fabric = Resource(sim, fabric_links, name="fabric")
        self.bytes_moved = 0
        # Monotonic transfer sequence: concurrent transfers on the same
        # directed link produce overlapping same-identity spans, so each
        # span and its wait edges share an ``op`` token to stay matchable.
        self._seq = 0
        # Per-link telemetry state, maintained only when the timeline
        # carries a live metrics hub (zero cost otherwise).
        self._inflight: dict[tuple[int, int], int] = {}
        self._link_counters: dict[tuple[int, int], Any] = {}

    def _link_telemetry(self, src: int, dst: int):
        """Lazily register (gauge, counter) for one directed link."""
        tele = self.timeline.telemetry if self.timeline is not None else None
        if tele is None:
            return None
        key = (src, dst)
        counter = self._link_counters.get(key)
        if counter is None:
            link = f"{src}->{dst}"
            self._inflight.setdefault(key, 0)
            tele.gauge("glasswing_shuffle_inflight_bytes",
                       help="bytes currently on the wire per directed link",
                       probe=lambda k=key: self._inflight[k], link=link)
            counter = self._link_counters[key] = tele.counter(
                "glasswing_shuffle_bytes",
                help="cumulative bytes completed per directed link",
                link=link)
        return counter

    @staticmethod
    def _endpoint_alive(node: int, meter: Optional[TrafficMeter]) -> bool:
        health = meter.health if meter is not None else None
        return health is None or health.alive(node)

    def send(self, src: int, dst: int, nbytes: int,
             meter: Optional[TrafficMeter] = None) -> Generator:
        """Move ``nbytes`` from ``src`` to ``dst``: a generator to ``yield
        from`` in a process.

        It completes when the last byte has been received, returning
        ``True`` on delivery.  Same-node sends complete immediately (the
        caller models any memcpy cost).  Arguments are checked here, at
        the call; the returned generator is the transfer itself.

        A :class:`TrafficMeter` attributes the transfer to one tenant of
        a shared fabric: its timeline receives the transfer span, and
        under its health view a send to an already-dead node returns
        ``False`` immediately (connection refused) while a receiver dying
        mid-transfer loses the data — the wire time is still paid, but
        the send reports ``False``.
        """
        for node in (src, dst):
            if not 0 <= node < self.n_nodes:
                raise ValueError(
                    f"unknown node {node} (cluster has {self.n_nodes})")
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if not self._endpoint_alive(dst, meter):
            return _done(False)
        if src == dst or nbytes == 0:
            return _done(True)
        wire = self._wire(src, dst, nbytes, meter)
        link_counter = self._link_telemetry(src, dst)
        if link_counter is None:
            return wire
        return self._metered(wire, (src, dst), nbytes, link_counter)

    def _metered(self, wire: Generator, link: tuple[int, int], nbytes: int,
                 link_counter) -> Generator:
        # In-flight gauge covers the whole transfer, including interrupt
        # exits (a killed sender must not pin phantom bytes on the link).
        self._inflight[link] += nbytes
        try:
            delivered = yield from wire
        finally:
            self._inflight[link] -= nbytes
        link_counter.inc(nbytes)
        return delivered

    def _wire(self, src: int, dst: int, nbytes: int,
              meter: Optional[TrafficMeter]) -> Generator:
        sim = self.sim
        start = sim.now
        wire_time = nbytes / self.spec.bandwidth
        # Store-and-forward phases: a flow never holds one endpoint while
        # queueing for another, so all-to-all shuffles cannot convoy (and
        # deadlock is structurally impossible).  Sender-side serialisation
        # and receiver-side delivery each take bytes/bandwidth; incast
        # still contends on the receiver's NIC.
        tx, fabric = self._tx[src], self._fabric
        yield from tx.take()
        t_fab = sim.now
        try:
            yield from fabric.take()
        except Interrupt:
            tx.release()
            raise
        t_wire = sim.now
        try:
            # Coalesced timeouts: a batched shuffle starts many
            # equal-sized transfers at the same instant; same-delay waits
            # share one event (and FIFO order among the sharers follows
            # subscription order, i.e. send order).
            yield sim.shared_timeout(wire_time)
        finally:
            tx.release()
            fabric.release()
        # Book the receiver at TX end; an empty calendar is free by now.
        t_rx = sim.now + self.spec.latency
        calendar = self._calendars[dst]
        grant = max(t_rx, calendar[-1].end) if calendar else t_rx
        end = grant + wire_time
        booking = _Booking(t_rx, wire_time, grant, end, sim.timeout_at(end))
        calendar.append(booking)
        try:
            yield booking.event
        except Interrupt:
            self._withdraw(calendar, booking)
            raise
        calendar.remove(booking)
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
            tx_wait = t_fab - start
            fabric_wait = t_wire - t_fab
            rx_wait = booking.grant - t_rx
            timeline.record("net.transfer", link,
                            start, sim.now, bytes=nbytes,
                            delivered=delivered, tx_wait=tx_wait,
                            fabric_wait=fabric_wait, rx_wait=rx_wait,
                            op=op)
            # The three queueing phases are in-span waits (the span covers
            # the whole store-and-forward transfer); everything else in it
            # is wire/latency self-time.
            if tx_wait > 0 or fabric_wait > 0 or rx_wait > 0:
                for resource, since, wait in (
                        (tx.name, start, tx_wait),
                        (fabric.name, t_fab, fabric_wait),
                        (f"nic{dst}.rx", t_rx, rx_wait)):
                    if wait > 0:
                        timeline.record_wait("shuffle-link", resource,
                                             "net.transfer", link,
                                             since, since + wait, op=op)
        return delivered

    def _withdraw(self, calendar: deque, booking: "_Booking") -> None:
        """Take a killed sender's booking off its receiver's calendar, as
        a FIFO queue's cancel (before the grant) or early release (while
        holding) would, and re-plan the later bookings from there."""
        sim = self.sim
        now = sim.now
        i = calendar.index(booking)
        del calendar[i]
        # Leave the event a per-phase wait would have left pending: the
        # latency timer in flight, none when queued, the wire timer when
        # holding the NIC.
        if now < booking.t_rx:
            sim.reschedule(booking.event, booking.t_rx)
        elif now < booking.grant:
            sim.reschedule(booking.event, None)
        free = max(now, calendar[i - 1].end) if i else now
        for later in itertools.islice(calendar, i, None):
            grant = max(later.t_rx, free)
            if grant == later.grant:
                return
            later.grant = grant
            later.end = free = grant + later.wire
            sim.reschedule(later.event, free)


@dataclass(slots=True)
class _Booking:
    """A transfer on a receiver calendar: it arrives at ``t_rx``, holds
    the NIC from ``grant`` and delivers at ``end`` through ``event``."""

    t_rx: float
    wire: float
    grant: float
    end: float
    event: Event


def _done(value: bool) -> Generator:
    """A transfer that completes without waiting."""
    return value
    yield  # pragma: no cover - makes this a generator
