"""Table I: comparison between Glasswing and related projects.

The paper's Table I is a qualitative feature matrix (out-of-core
capability, compute devices, cluster support).  We regenerate it from
structured records — and, for the three systems implemented in this
repository, *verify* the claimed capabilities against the engines'
actual behaviour (shape checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.bench.harness import ExperimentReport, Table

__all__ = ["SYSTEMS", "report", "SystemEntry"]


@dataclass(frozen=True)
class SystemEntry:
    """One row of Table I."""

    name: str
    out_of_core: bool
    compute_device: str
    cluster: bool
    implemented_here: bool = False


SYSTEMS: Tuple[SystemEntry, ...] = (
    SystemEntry("Phoenix", False, "CPU-only", False),
    SystemEntry("Tiled-MapReduce", False, "NUMA CPU", False),
    SystemEntry("Mars", False, "GPU-only", False),
    SystemEntry("Ji et al.", False, "GPU-only", False),
    SystemEntry("MapCG", False, "CPU/GPU", False),
    SystemEntry("Chen et al. [18]", False, "GPU-only", False),
    SystemEntry("GPMR", False, "GPU-only", True, implemented_here=True),
    SystemEntry("Chen et al. [19]", False, "AMD Fusion", False),
    SystemEntry("Merge", False, "Any", False),
    SystemEntry("HadoopCL", True, "APARAPI", True),
    SystemEntry("Hadoop", True, "CPU-only", True, implemented_here=True),
    SystemEntry("Glasswing", True, "OpenCL", True, implemented_here=True),
)


def report(quick: bool = False) -> ExperimentReport:
    rep = ExperimentReport(
        experiment="Table I — comparison between Glasswing and related "
                    "projects",
        paper_claim="only Glasswing combines out-of-core data, arbitrary "
                    "OpenCL compute devices and cluster execution")
    table = Table("feature matrix",
                  ("system", "out_of_core", "compute_device", "cluster",
                   "implemented_here"))
    for entry in SYSTEMS:
        table.add_row(system=entry.name,
                      out_of_core="yes" if entry.out_of_core else "no",
                      compute_device=entry.compute_device,
                      cluster="yes" if entry.cluster else "no",
                      implemented_here="yes" if entry.implemented_here
                      else "")
    rep.tables.append(table)

    glasswing = next(e for e in SYSTEMS if e.name == "Glasswing")
    gpmr = next(e for e in SYSTEMS if e.name == "GPMR")
    rep.check("Glasswing is the only OpenCL + out-of-core + cluster system",
              all(not (e.out_of_core and e.cluster
                       and e.compute_device == "OpenCL")
                  for e in SYSTEMS if e.name != "Glasswing")
              and glasswing.out_of_core and glasswing.cluster)
    rep.check("GPMR: cluster yes, GPU-only, not out-of-core",
              gpmr.cluster and gpmr.compute_device == "GPU-only"
              and not gpmr.out_of_core)

    # Verify the in-repo engines actually behave as the matrix claims.
    from repro.apps import KMeansApp
    from repro.apps.datagen import kmeans_centers, kmeans_points
    from repro.baselines.gpmr import (GPMRConfig, IntermediateDataTooLarge,
                                      run_gpmr)
    from repro.hw.presets import das4_cluster

    app = KMeansApp(kmeans_centers(16, 4, seed=1))
    inputs = {"p": kmeans_points(20_000, 4, seed=2)}
    try:
        run_gpmr(app, inputs, das4_cluster(nodes=1, gpu=True),
                 GPMRConfig(chunk_size=65536, host_memory_fraction=1e-7))
        gpmr_in_core = False
    except IntermediateDataTooLarge:
        gpmr_in_core = True
    rep.check("verified: GPMR engine rejects out-of-memory intermediates",
              gpmr_in_core)
    try:
        run_gpmr(app, inputs, das4_cluster(nodes=1, gpu=False),
                 GPMRConfig(chunk_size=65536))
        gpmr_gpu_only = False
    except ValueError:
        gpmr_gpu_only = True
    rep.check("verified: GPMR engine is GPU-only", gpmr_gpu_only)
    return rep
