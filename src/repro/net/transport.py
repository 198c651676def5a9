"""Point-to-point transfers over a modeled interconnect.

Fault semantics: transfers are interrupt-safe (a sender killed by a node
crash withdraws its queued NIC/fabric requests instead of wedging them),
and when a send carries a :class:`TrafficMeter` with a
:class:`~repro.core.faults.ClusterHealth` view, data addressed to a dead
node is dropped — :meth:`Network.send` reports delivery, so shuffle data
in flight to (or from) a crashed node is lost exactly as on a real
cluster.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.simt.core import Interrupt, Simulator
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
        self._rx = [Resource(sim, 1, name=f"nic{r}.rx") for r in range(n_nodes)]
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
        """Process-style generator: move ``nbytes`` from ``src`` to ``dst``.

        Completes when the last byte has been received, returning ``True``
        on delivery.  Same-node sends complete immediately (the caller
        models any memcpy cost).

        A :class:`TrafficMeter` attributes the transfer to one tenant of
        a shared fabric: its timeline receives the transfer span, and
        under its health view a send to an already-dead node returns
        ``False`` immediately (connection refused) while a receiver dying
        mid-transfer loses the data — the wire time is still paid, but
        the send reports ``False``.
        """
        self._check_node(src)
        self._check_node(dst)
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if not self._endpoint_alive(dst, meter):
            return False
        if src == dst or nbytes == 0:
            return True
        link_counter = self._link_telemetry(src, dst)
        if link_counter is None:
            return (yield from self._wire(src, dst, nbytes, meter))
        # In-flight gauge covers the whole transfer, including interrupt
        # exits (a killed sender must not pin phantom bytes on the link).
        self._inflight[(src, dst)] += nbytes
        try:
            delivered = yield from self._wire(src, dst, nbytes, meter)
        finally:
            self._inflight[(src, dst)] -= nbytes
        link_counter.inc(nbytes)
        return delivered

    def _wire(self, src: int, dst: int, nbytes: int,
              meter: Optional[TrafficMeter] = None) -> Generator:
        start = self.sim.now
        wire_time = nbytes / self.spec.bandwidth
        # Store-and-forward phases: a flow never holds one endpoint while
        # queueing for another, so all-to-all shuffles cannot convoy (and
        # deadlock is structurally impossible).  Sender-side serialisation
        # and receiver-side delivery each take bytes/bandwidth; incast
        # still contends on the receiver's NIC.
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
            # Coalesced timeouts: a batched shuffle starts many
            # equal-sized transfers at the same instant; same-delay waits
            # share one event (and FIFO order among the sharers follows
            # subscription order, i.e. send order).
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
            # The three queueing phases are in-span waits (the span covers
            # the whole store-and-forward transfer); everything else in it
            # is wire/latency self-time.
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

    def time_for(self, nbytes: int) -> float:
        """Uncontended duration of one transfer (store-and-forward)."""
        return self.spec.latency + 2 * nbytes / self.spec.bandwidth

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"unknown node {node} (cluster has {self.n_nodes})")
