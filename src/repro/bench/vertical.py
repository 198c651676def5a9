"""§IV-C: vertical scalability across accelerators.

The paper's setup lists K20m (Type-2 nodes), a GTX680 node and Xeon Phi
nodes; §IV announces "vertical scalability, where Glasswing performance
with different accelerators is considered" and §IV-A verifies "consistent
scaling results" for KM and MM on the K20m.  (The provided text is
truncated inside §IV-B, so this module reproduces the device comparison
from the hardware inventory and the section's announcement.)

Shape checks: every accelerator beats the host CPU on the compute-bound
apps; device ranking follows effective capability (K20m >= GTX680 >=
GTX480); scaling on Type-2/K20m nodes is consistent with Type-1/GTX480.
"""

from __future__ import annotations

from typing import Dict

from repro.apps import KMeansApp
from repro.core import JobConfig, run_glasswing
from repro.hw import presets
from repro.hw.specs import ClusterSpec, DeviceKind, KiB

from repro.bench import workloads
from repro.bench.harness import ExperimentReport, Table, speedups

__all__ = ["report", "DEVICES", "NODES"]

CHUNK = 256 * KiB
#: small enough that a quick run sweeps the same
NODES = (1, 2, 4)

DEVICES = {
    "CPU (2x E5620)": (presets.type1_node(), DeviceKind.CPU),
    "GTX480": (presets.type1_node(gpu=True), DeviceKind.GPU),
    "GTX680": (presets.type1_node(accelerator=presets.GTX680),
               DeviceKind.GPU),
    "K20m": (presets.type2_node(), DeviceKind.GPU),
    "Xeon Phi": (presets.type1_node(accelerator=presets.XEON_PHI),
                 DeviceKind.ACCELERATOR),
}


def _cluster_of(node_spec, n: int) -> ClusterSpec:
    return ClusterSpec(name=f"vertical-{node_spec.name}-{n}",
                       nodes=tuple(node_spec for _ in range(n)),
                       network=presets.QDR_IB)


def report(quick: bool = False) -> ExperimentReport:
    rep = ExperimentReport(
        experiment="§IV-C — vertical scalability: KM across compute devices",
        paper_claim="the same application code runs on CPUs, NVIDIA GPUs "
                    "and the Xeon Phi; accelerators give consistent "
                    "scaling (verified on the K20m in §IV-A)")
    inputs = workloads.km_points()
    single: Dict[str, float] = {}
    table = Table("KM (4096 centers) across devices",
                  ("device",) + tuple(f"{n}_nodes_s" for n in NODES)
                  + ("speedup_max",))
    per_device_scaling: Dict[str, list] = {}
    for name, (node_spec, kind) in DEVICES.items():
        times = []
        for n in NODES:
            res = run_glasswing(
                workloads.km_app_paper(), inputs, _cluster_of(node_spec, n),
                JobConfig(chunk_size=CHUNK, storage="local", device=kind))
            times.append(res.job_time)
        single[name] = times[0]
        per_device_scaling[name] = times
        table.add_row(device=name, speedup_max=speedups(times)[-1],
                      **{f"{n}_nodes_s": t for n, t in zip(NODES, times)})
    rep.tables.append(table)

    rep.check("every accelerator beats the host CPU",
              all(single[d] < single["CPU (2x E5620)"]
                  for d in DEVICES if d != "CPU (2x E5620)"),
              str({d: round(t, 3) for d, t in single.items()}))
    rep.check("device ranking follows capability (K20m <= GTX680 <= GTX480)",
              single["K20m"] <= single["GTX680"] * 1.05
              and single["GTX680"] <= single["GTX480"] * 1.05)
    gtx480 = speedups(per_device_scaling["GTX480"])[-1]
    k20m = speedups(per_device_scaling["K20m"])[-1]
    rep.check("K20m scaling consistent with GTX480 (paper §IV-A)",
              abs(k20m - gtx480) <= 0.5 * max(gtx480, k20m),
              f"GTX480 {gtx480:.2f}x vs K20m {k20m:.2f}x")
    return rep
