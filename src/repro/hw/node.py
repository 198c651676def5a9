"""Runtime node and cluster objects binding specs to a simulator."""

from __future__ import annotations

from typing import List, Optional

from repro.simt.core import Simulator
from repro.simt.trace import Timeline

from repro.hw.cpu import FluidCPU
from repro.hw.disk import Disk
from repro.hw.specs import ClusterSpec, NodeSpec
from repro.net.transport import Network

__all__ = ["Node", "Cluster"]


class Node:
    """One live cluster node: host-thread pool, disk, attached devices.

    The :class:`~repro.hw.cpu.FluidCPU` pool is shared by *everything* that
    runs on the host — OpenCL CPU-device kernels, partitioner threads,
    merger threads, (de)serialisation — so contention effects emerge from
    the model.
    """

    def __init__(self, sim: Simulator, spec: NodeSpec, node_id: int,
                 timeline: Optional[Timeline] = None):
        self.sim = sim
        self.spec = spec
        self.node_id = node_id
        self.timeline = timeline if timeline is not None else Timeline()
        self.cpu = FluidCPU(sim, spec.hw_threads, name=f"n{node_id}.cpu")
        self.disk = Disk(sim, spec.disk, name=f"n{node_id}.disk",
                         timeline=self.timeline)
        tele = self.timeline.telemetry
        if tele is not None:
            tele.gauge("glasswing_node_cpu_busy_fraction",
                       help="fraction of host hardware threads executing",
                       probe=self.cpu.busy_fraction, capacity=1.0,
                       node=self.name)
            tele.gauge("glasswing_node_cpu_demand_threads",
                       help="thread demand across active host tasks",
                       probe=lambda: self.cpu.demand, node=self.name)
            tele.gauge("glasswing_node_disk_busy",
                       help="disk channel occupancy (0 idle, 1 transferring)",
                       probe=lambda: self.disk.probe()["busy"], capacity=1.0,
                       node=self.name)
            tele.gauge("glasswing_node_disk_waiters",
                       help="requests queued on the disk channel",
                       probe=lambda: self.disk.probe()["waiters"],
                       node=self.name)

    @property
    def name(self) -> str:
        return f"node{self.node_id}"

    def host_work(self, threads: int, thread_seconds: float):
        """Event firing when the given host-CPU work completes."""
        return self.cpu.run(threads, thread_seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id} spec={self.spec.name!r}>"


class Cluster:
    """A set of :class:`Node` runtimes plus the interconnect."""

    def __init__(self, sim: Simulator, spec: ClusterSpec,
                 timeline: Optional[Timeline] = None):
        self.sim = sim
        self.spec = spec
        self.timeline = timeline if timeline is not None else Timeline()
        self.nodes: List[Node] = [
            Node(sim, node_spec, i, timeline=self.timeline)
            for i, node_spec in enumerate(spec.nodes)
        ]
        self.network = Network(sim, spec.network, len(self.nodes),
                               timeline=self.timeline)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __getitem__(self, node_id: int) -> Node:
        return self.nodes[node_id]
