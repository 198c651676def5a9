"""Command-line entry point: ``python -m repro.bench <experiment>``.

The experiments are the rows of :data:`repro.bench.EXPERIMENTS`
(``--help`` lists them), or ``all``.  Use ``--quick`` for each panel's
quick ladder.  A full run of an experiment that is a
:data:`repro.bench.regress.BASELINES` row writes its
``BENCH_<name>.json`` to the current directory; a quick run writes none.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter
from typing import Iterator

from repro.bench import EXPERIMENTS, ExperimentReport, panel
from repro.bench.regress import BASELINES

ALL = tuple(EXPERIMENTS)


def _reports(name: str, quick: bool) -> Iterator[ExperimentReport]:
    """Build the experiment's panels one at a time, in table order."""
    if name not in EXPERIMENTS:
        raise SystemExit(f"unknown experiment {name!r}")
    for ref in EXPERIMENTS[name]:
        if quick or name not in BASELINES:
            yield panel(ref)(quick=quick)
        else:
            yield panel(ref)(json_path=BASELINES[name].path)


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
    failed = set()
    for name in names:
        rendered = []
        start = perf_counter()
        for report in _reports(name, args.quick):
            text = report.render()
            print(text)
            print(f"({perf_counter() - start:.1f}s)\n")
            rendered.append(text)
            if not report.all_passed:
                failed.add(name)
            if args.trace_dir and report.timelines:
                for path in report.export_traces(args.trace_dir):
                    print(f"trace: {path}")
            start = perf_counter()
        if out_dir is not None:
            (out_dir / f"{name}.md").write_text(
                f"# {name}\n\n```\n" + "\n\n".join(rendered) + "\n```\n")
    if failed:
        print(f"{len(failed)} experiment(s) had failing shape checks",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
