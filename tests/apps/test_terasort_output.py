"""TeraSort's output bytes, pinned.

The sha256 of ``sorted_output()`` — every key's and value's bytes in
order — at two points: a 16-node job over 20,000 records and the 64-node
point of ``repro.bench.scaling``'s weak-scaling ladder.  The pins were
taken from the per-record ``bytes`` data path, before records became
array columns; the 256- and 1024-node ladder points (too slow here) are
recorded in CHANGES.md.
"""

import hashlib

import pytest

from repro.apps import TeraSortApp
from repro.apps.datagen import teragen
from repro.bench.scaling import _ts_case
from repro.core import JobConfig, run_glasswing
from repro.hw.presets import das4_cluster

PINS = {
    "16-node-20k": ("1a1a68a48f00b0d67abc0783d902ca66"
                    "e1e05fbf082e8f605d7b223b3e479c87"),
    "64-node-ladder": ("3dba210dd674728d1f9c6258e90bb267"
                       "423ad1f04049a83ecd99eb36fd6adb7d"),
}


def output_sha256(result) -> str:
    digest = hashlib.sha256()
    for key, value in result.sorted_output():
        digest.update(key)
        digest.update(value)
    return digest.hexdigest()


def sixteen_nodes():
    data = teragen(20_000, seed=11)
    app = TeraSortApp.from_input(data, sample_every=97)
    return run_glasswing(app, {"tera": data}, das4_cluster(nodes=16),
                         JobConfig(chunk_size=64 * 1024,
                                   output_replication=1))


def ladder_point(nodes: int):
    app, inputs, cfg = _ts_case(nodes)
    return run_glasswing(app, inputs, das4_cluster(nodes=nodes),
                         JobConfig(scheduler="static-affinity", **cfg))


@pytest.mark.parametrize("point", sorted(PINS))
def test_terasort_output_bytes_are_pinned(point):
    result = sixteen_nodes() if point == "16-node-20k" else ladder_point(64)
    assert output_sha256(result) == PINS[point]
