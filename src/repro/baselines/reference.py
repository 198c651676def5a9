"""Sequential reference executor: the ground truth for every engine.

No simulation, no pipeline — just ``map``, group, ``reduce`` in one
process.  All engines' outputs are asserted equal (or numerically close,
for floating-point reductions) to this.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.api import MapReduceApp
from repro.storage.records import FixedRecordFormat

__all__ = ["run_reference", "canonical_output"]

Pair = Tuple[Any, Any]


def run_reference(app: MapReduceApp, inputs: Dict[str, bytes]) -> List[Pair]:
    """Execute the job sequentially; returns canonically sorted output."""
    fmt = app.record_format
    parts = [fmt.split_records(inputs[path]) for path in sorted(inputs)]
    if isinstance(fmt, FixedRecordFormat):
        records = np.concatenate(parts) if parts else fmt.split_records(b"")
    else:
        records = list(itertools.chain.from_iterable(parts))
    pairs = app.map_batch(records)
    pairs = sorted(pairs, key=lambda kv: app.sort_key(kv[0]))
    out: List[Pair] = []
    if app.map_only_output:
        out = pairs
    else:
        for key, group in itertools.groupby(pairs, key=lambda kv: kv[0]):
            out.extend(app.reduce(key, [v for _, v in group]))
    return canonical_output(out)


def canonical_output(pairs: List[Pair]) -> List[Pair]:
    """Deterministic ordering for output comparison across engines."""
    return sorted(pairs, key=lambda kv: repr(kv[0]))
