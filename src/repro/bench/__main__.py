"""Command-line entry point: ``python -m repro.bench <experiment>``.

The experiments are the rows of :data:`EXPERIMENTS` (``--help`` lists
them), or ``all``.  Use ``--quick`` for truncated node sweeps.
``scaling``, ``service``, ``dag`` and ``elastic`` write their
``BENCH_<name>.json`` baseline to the current directory — on a full run
only: a quick run never writes a committed baseline.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Tuple


def _report(*args: Any, **kwargs: Any) -> Callable[[Any], List[Any]]:
    return lambda mod: [mod.report(*args, **kwargs)]


def _run_all(mod: Any) -> List[Any]:
    return mod.run_all()


#: experiment -> (module under ``repro.bench``, full run, quick run); a
#: run takes the imported module and returns its report(s)
EXPERIMENTS: Dict[str, Tuple[str, Callable, Callable]] = {
    "table1": ("table1", _report(), _report()),
    "fig2": ("fig2", _run_all, lambda m: [
        m.pvc_report((1, 4, 16)), m.wc_report((1, 4, 16)),
        m.ts_report((4, 16))]),
    "fig3": ("fig3", _run_all, lambda m: [
        m.km_cpu_report((1, 4)), m.mm_cpu_report((1, 4)),
        m.km_gpu_report((1, 4)), m.mm_gpu_report((1, 4)),
        m.km_overlap_report((1, 4))]),
    "table2": ("table2", _report(), _report()),
    "table3": ("table3", _report(), _report()),
    "fig4": ("fig4", _run_all, _run_all),
    "fig5": ("fig5", _report(), _report()),
    "vertical": ("vertical", _report(), _report()),
    "ablation": ("ablation", _run_all, _run_all),
    "scaling": ("scaling", _report(), lambda m: [
        m.report(m.QUICK_NODES, json_path=None)]),
    "service": ("service", _report(), lambda m: [
        m.report(m.QUICK_JOBS, json_path=None)]),
    "dag": ("dag", _report(), _report(quick=True, json_path=None)),
    "elastic": ("elastic", _report(), _report(quick=True, json_path=None)),
}
ALL = tuple(EXPERIMENTS)


def _reports(name: str, quick: bool):
    if name not in EXPERIMENTS:
        raise SystemExit(f"unknown experiment {name!r}")
    module, full, quick_run = EXPERIMENTS[name]
    mod = importlib.import_module(f"repro.bench.{module}")
    return (quick_run if quick else full)(mod)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment", choices=ALL + ("all",))
    parser.add_argument("--quick", action="store_true",
                        help="truncated sweeps for a fast smoke run")
    parser.add_argument("--output", metavar="DIR", default=None,
                        help="also write each experiment's report to "
                             "DIR/<experiment>.md")
    parser.add_argument("--trace-dir", metavar="DIR", default=None,
                        help="write Chrome traces of runs the experiments "
                             "kept a timeline for (chrome://tracing)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    out_dir = None
    if args.output:
        import pathlib
        out_dir = pathlib.Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)

    names = ALL if args.experiment == "all" else (args.experiment,)
    failures = 0
    for name in names:
        start = time.time()
        rendered = []
        for report in _reports(name, args.quick):
            text = report.render()
            print(text)
            print(f"({time.time() - start:.1f}s)\n")
            rendered.append(text)
            if not report.all_passed:
                failures += 1
            if args.trace_dir and report.timelines:
                for path in report.export_traces(args.trace_dir):
                    print(f"trace: {path}")
        if out_dir is not None:
            (out_dir / f"{name}.md").write_text(
                f"# {name}\n\n```\n" + "\n\n".join(rendered) + "\n```\n")
    if failures:
        print(f"{failures} experiment(s) had failing shape checks",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
