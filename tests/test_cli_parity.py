"""CLI parity: no flag of the six entry points is added, lost or changed.

``cli_parity_golden.json`` maps each parser to ``{option string: spec}``
(positionals keyed by ``dest``) and was generated with
:func:`option_table` from the parsers of the commit *before* the shared
``argparse`` parents and the generated regress flags existed.  Help text
is deliberately absent: it may be reworded, the interface may not.
"""

import json
import pathlib

import pytest

from repro import cli
from repro.bench import __main__ as bench_main
from repro.bench import regress

GOLDEN = json.loads(pathlib.Path(__file__).with_name(
    "cli_parity_golden.json").read_text(encoding="utf-8"))

PARSERS = {
    "repro <app>": cli.build_parser,
    "repro serve": cli.build_serve_parser,
    "repro dag": cli.build_dag_parser,
    "repro explain-diff": cli.build_explain_diff_parser,
    "repro.bench": bench_main._build_parser,
    "repro.bench.regress": regress._build_parser,
}

#: the one intended difference: ``--json`` and ``--json-out`` of the gate
#: are two spellings of one appended destination, so each given path is
#: written (before: two ``store`` flags with their own ``dest``)
_JSON_OUT = {"dest": "json_out", "default": None, "choices": None,
             "nargs": None, "action": "_AppendAction", "type": None,
             "metavar": "FILE", "required": False}
DELIBERATE = {"repro.bench.regress": {"--json": _JSON_OUT,
                                      "--json-out": _JSON_OUT}}


def option_table(parser):
    """``{option string or positional dest: spec}`` of one parser."""
    table = {}
    for action in parser._actions:
        spec = {
            "dest": action.dest,
            "default": action.default,
            "choices": (None if action.choices is None
                        else list(action.choices)),
            "nargs": action.nargs,
            "action": type(action).__name__,
            "type": getattr(action.type, "__name__", None),
            "metavar": action.metavar,
            "required": action.required,
        }
        for key in action.option_strings or [action.dest]:
            table[key] = spec
    return table


def test_golden_covers_every_parser():
    assert set(GOLDEN) == set(PARSERS)


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_parser_matches_parent_commit(name):
    expected = {**GOLDEN[name], **DELIBERATE.get(name, {})}
    # through JSON, as the golden went: tuples become lists
    actual = json.loads(json.dumps(option_table(PARSERS[name]())))
    assert set(actual) == set(expected), \
        sorted(set(actual) ^ set(expected))
    changed = {key: (expected[key], actual[key]) for key in expected
               if actual[key] != expected[key]}
    assert not changed, changed
