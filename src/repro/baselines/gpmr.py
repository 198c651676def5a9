"""GPMR-style GPU MapReduce engine (the paper's GPU baseline).

Modeled after the behaviours the paper measures:

* **GPU only** — map and reduce kernels run on the node's GPU; a node
  without one is an error;
* **no I/O-compute overlap** — "GPMR first reads all data, then starts
  its computation pipeline; its total time is the sum of computation and
  I/O" (Fig 3e's two lines are exactly ``compute`` and ``compute + IO``);
* **in-core intermediate data** — "limited to processing data sets where
  intermediate data fits in host memory";
* input fully replicated on each node's local FS (the GPMR experimental
  layout), no HDFS/JNI;
* optional benchmark quirks from the paper: its MM "does not read its
  input matrices from files, but generates them on the fly and excludes
  the generation time" (``skip_input_io``) and "does not aggregate the
  partial submatrices as it has no reduce implementation"
  (``skip_reduce``); its KM is "optimized for a small number of centers"
  (``compute_factor`` models the adapted large-center inefficiency).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.hw.node import Cluster
from repro.hw.specs import ClusterSpec, DeviceKind, MiB
from repro.ocl.runtime import Device
from repro.simt.core import Simulator
from repro.simt.trace import Timeline

from repro.core.api import MapReduceApp
from repro.core.coordinator import make_splits
from repro.core.costs import DEFAULT_HOST_COSTS, HostCosts, sort_seconds
from repro.core.splitread import read_split_records
from repro.storage.backend import make_backend

__all__ = ["GPMRConfig", "GPMRResult", "run_gpmr"]

Pair = Tuple[Any, Any]


class IntermediateDataTooLarge(RuntimeError):
    """GPMR keeps intermediate data in host memory; it did not fit."""


@dataclass(frozen=True)
class GPMRConfig:
    """GPMR run configuration."""

    chunk_size: int = 16 * MiB
    compute_factor: float = 1.0    # kernel inefficiency (adapted KM > 16 centers)
    skip_input_io: bool = False    # MM generates input on the fly
    skip_reduce: bool = False      # MM has no reduce implementation
    host_memory_fraction: float = 0.8  # of node RAM usable for intermediates


@dataclass
class GPMRResult:
    """Outcome of one GPMR job; compute vs total I/O split is first-class
    because Figure 3(e) plots both."""

    app_name: str
    n_nodes: int
    job_time: float
    io_time: float            # max per-node input read time
    compute_time: float       # job time minus the input-read prefix
    output: Dict[int, List[Pair]]
    timeline: Timeline
    stats: Dict[str, Any] = field(default_factory=dict)

    def output_pairs(self):
        for pid in sorted(self.output):
            yield from self.output[pid]


def run_gpmr(app: MapReduceApp, inputs: Dict[str, bytes],
             cluster_spec: ClusterSpec,
             config: Optional[GPMRConfig] = None,
             costs: HostCosts = DEFAULT_HOST_COSTS) -> GPMRResult:
    """Run one GPMR job on a fresh simulated cluster (GPU nodes only)."""
    config = config or GPMRConfig()
    sim = Simulator()
    timeline = Timeline()
    cluster = Cluster(sim, cluster_spec, timeline=timeline)
    n = len(cluster)
    for node in cluster:
        if not node.spec.has_device(DeviceKind.GPU):
            raise ValueError(
                f"GPMR requires GPUs; node {node.node_id} has none")
    devices = [Device(sim, node.spec.device(DeviceKind.GPU), node)
               for node in cluster]
    backend = make_backend("local", cluster)
    for path, data in inputs.items():
        backend.install(path, data)
    backend.purge_caches()
    splits = make_splits(backend, sorted(inputs), config.chunk_size,
                         record_size=app.record_format.record_size)
    # Static round-robin split ownership (input is replicated everywhere).
    assignment = {i: [s for s in splits if s.index % n == i]
                  for i in range(n)}

    inter: Dict[int, Dict[int, List[Pair]]] = {i: {} for i in range(n)}
    outputs: Dict[int, List[Pair]] = {}
    box: Dict[str, float] = {"io": 0.0}

    def node_job(node_id: int) -> Generator:
        node = cluster[node_id]
        device = devices[node_id]
        # Phase 1: read ALL input before any computation.
        io_start = sim.now
        chunks = []
        for split in assignment[node_id]:
            if config.skip_input_io:
                chunks.append(_free_read(inputs, split, app))
            else:
                records, nbytes = yield from read_split_records(
                    backend, node_id, split, app.record_format)
                chunks.append((records, nbytes))
        io_time = sim.now - io_start
        box["io"] = max(box["io"], io_time)
        timeline.record("gpmr.io", node.name, io_start, sim.now)
        # Phase 2: map every chunk on the GPU (transfers + kernels).
        mem_budget = int(node.spec.ram * config.host_memory_fraction)
        held_bytes = 0
        compute_start = sim.now
        for records, nbytes in chunks:
            yield from device.transfer(nbytes, "h2d")
            pairs = app.map_batch(records)
            cost = app.map_cost(device.spec, len(records), nbytes)
            cost = cost.scaled(config.compute_factor)
            yield from device.execute_cost(cost)
            raw = app.inter_schema.size_of(pairs)
            yield from device.transfer(raw, "d2h")
            held_bytes += raw
            if held_bytes > mem_budget:
                raise IntermediateDataTooLarge(
                    f"node {node_id}: {held_bytes} bytes of intermediate "
                    f"data exceed the {mem_budget}-byte host budget")
            # Host-side partial reduction (GPMR's partial-reduce step).
            if app.has_combiner and not config.skip_reduce:
                pairs = app.run_combine(pairs)
            for pair in pairs:
                pid = app.partition(pair[0], n)
                inter[node_id].setdefault(pid, []).append(pair)
        timeline.record("gpmr.map", node.name, compute_start, sim.now)

    def exchange_and_reduce(node_id: int) -> Generator:
        node = cluster[node_id]
        device = devices[node_id]
        # All-to-all exchange of partition data.
        sends = []
        for pid, pairs in sorted(inter[node_id].items()):
            if pid != node_id and pairs:
                nbytes = app.inter_schema.size_of(pairs)
                sends.append(sim.process(
                    _send(cluster, node_id, pid, nbytes),
                    name=f"gpmr-send-{node_id}-{pid}"))
        if sends:
            yield sim.all_of(sends)
        return

    def reduce_node(node_id: int) -> Generator:
        node = cluster[node_id]
        device = devices[node_id]
        mine: List[Pair] = []
        for src in range(n):
            mine.extend(inter[src].get(node_id, []))
        mine.sort(key=lambda kv: app.sort_key(kv[0]))
        yield node.host_work(1, sort_seconds(costs, len(mine)))
        out: List[Pair] = []
        if config.skip_reduce or app.map_only_output:
            out = mine
        elif mine:
            groups = [(k, [v for _, v in grp]) for k, grp in
                      itertools.groupby(mine, key=lambda kv: kv[0])]
            raw = app.inter_schema.size_of(mine)
            yield from device.transfer(raw, "h2d")
            base = app.reduce_cost(device.spec, len(groups), len(mine))
            yield from device.execute_cost(base.scaled(config.compute_factor))
            for key, values in groups:
                out.extend(app.reduce(key, values))
            yield from device.transfer(app.output_schema.size_of(out), "d2h")
        yield from backend.write_chunk(node_id, app.output_schema.size_of(out), 1)
        outputs[node_id] = out

    def driver():
        yield sim.all_of([sim.process(node_job(i), name=f"gpmr-map-{i}")
                          for i in range(n)])
        yield sim.all_of([sim.process(exchange_and_reduce(i),
                                      name=f"gpmr-xchg-{i}") for i in range(n)])
        yield sim.all_of([sim.process(reduce_node(i),
                                      name=f"gpmr-red-{i}") for i in range(n)])

    sim.process(driver(), name="gpmr-driver")
    sim.run()

    total = sim.now
    return GPMRResult(
        app_name=app.name, n_nodes=n, job_time=total,
        io_time=box["io"], compute_time=total - box["io"],
        output=outputs, timeline=timeline,
        stats={"splits": len(splits)})


def _send(cluster: Cluster, src: int, dst: int, nbytes: int) -> Generator:
    yield from cluster.network.send(src, dst, nbytes)


def _free_read(inputs: Dict[str, bytes], split, app):
    """The split's records without charging I/O time (GPMR's MM
    generates its input on the fly and excludes generation time)."""
    data = inputs[split.path][split.offset:split.offset + split.length]
    return app.record_format.split_records(data), split.length
