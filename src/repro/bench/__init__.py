"""Experiment harness: regenerates every table and figure of §IV.

:data:`EXPERIMENTS` is the one list of experiments, in paper order: each
maps to its *panels*, the report functions that build one
:class:`ExperimentReport` apiece.  Every panel is called the same way,
``fn(quick=...)``: its full and quick ladders are constants in its own
module, next to the checks that read them, and a panel with nothing to
shorten runs its full sweep either way.

Run any experiment from the command line (``--help`` lists them)::

    python -m repro.bench fig2
    python -m repro.bench all --quick
"""

import importlib
from typing import Callable, Dict, Tuple

from repro.bench.harness import ExperimentReport, ShapeCheck, Table

__all__ = ["EXPERIMENTS", "ExperimentReport", "ShapeCheck", "Table",
           "panel"]

#: experiment -> its panels, each ``"<module>.<report function>"``
#: under ``repro.bench``; ``benchmarks/`` has one test per panel of the
#: experiments that are not ``repro.bench.regress`` baselines
EXPERIMENTS: Dict[str, Tuple[str, ...]] = {
    "table1": ("table1.report",),
    "fig2": ("fig2.pvc_report", "fig2.wc_report", "fig2.ts_report"),
    "fig3": ("fig3.km_cpu_report", "fig3.mm_cpu_report",
             "fig3.km_gpu_report", "fig3.mm_gpu_report",
             "fig3.km_overlap_report"),
    "table2": ("table2.report",),
    "table3": ("table3.report",),
    "fig4": ("fig4.partitioning_report", "fig4.merge_delay_report"),
    "fig5": ("fig5.report",),
    "vertical": ("vertical.report",),
    "ablation": ("ablation.buffering_report",
                 "ablation.collector_contention_report",
                 "ablation.affinity_report", "ablation.network_report",
                 "ablation.phase_device_report"),
    "scaling": ("scaling.report",),
    "service": ("service.report",),
    "dag": ("dag.report",),
    "elastic": ("elastic.report",),
}


def panel(ref: str) -> Callable[..., ExperimentReport]:
    """The report function ``ref`` names, importing its module on first
    use (so listing the experiments imports none of them)."""
    module, _, name = ref.partition(".")
    return getattr(importlib.import_module(f"repro.bench.{module}"), name)
