"""Arrival traces: declarative job requests + synthetic trace generation.

A trace is a list of :class:`JobRequest` rows — *descriptions* of jobs
(app kind, input volume, seed, tenant, priority, submit time) rather
than materialised inputs, so a trace serialises to a small JSON file the
CLI can replay (``repro serve --arrival-trace``) and the bench can
regenerate deterministically from one seed.

Materialisation is seeded per request: the same trace always produces
byte-identical inputs, which is what lets the trace-replay bench gate
``BENCH_service.json`` at 0% drift and the property tests demand an
identical completion order for identical seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps import KMeansApp, TeraSortApp, WordCountApp
from repro.apps.datagen import (kmeans_centers, kmeans_points, teragen,
                                wiki_text)
from repro.core.api import MapReduceApp
from repro.storage.records import NO_COMPRESSION

__all__ = ["JobRequest", "TRACE_KINDS", "synthetic_trace", "load_trace",
           "dump_trace"]

#: app kinds a trace row may name (the paper's text/sort/iterative mix)
TRACE_KINDS = ("wordcount", "terasort", "kmeans")
#: who submits a synthetic row, and at which priority (class 1 twice as
#: likely as 0 or 2)
_TENANTS = ("alice", "bob", "carol")
_PRIORITIES = (0, 1, 1, 2)

_TERA_RECORD = 100
_KMEANS_DIMS = 4


@dataclass(frozen=True)
class JobRequest:
    """One declarative trace row (see module docstring).

    ``priority`` is a class index — lower is more urgent.  ``cancel_at``
    optionally withdraws the job at that virtual time if it is still
    queued (testing the cancel-before-dispatch path).
    """

    name: str
    kind: str
    submit_at: float = 0.0
    tenant: str = "default"
    priority: int = 1
    nbytes: int = 32 * 1024
    seed: int = 0
    cancel_at: Optional[float] = None
    config: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in TRACE_KINDS:
            raise ValueError(f"unknown trace kind {self.kind!r}; expected "
                             f"one of {', '.join(TRACE_KINDS)}")
        if self.nbytes < 1:
            raise ValueError("nbytes must be positive")
        if self.submit_at < 0:
            raise ValueError("submit_at must be >= 0")

    def materialize(self) -> Tuple[MapReduceApp, Dict[str, bytes],
                                   Dict[str, object]]:
        """Build ``(app, inputs, config_overrides)`` for this request."""
        overrides: Dict[str, object] = dict(self.config)
        if self.kind == "wordcount":
            app: MapReduceApp = WordCountApp()
            inputs = {f"{self.name}.corpus":
                      wiki_text(self.nbytes, seed=self.seed)}
        elif self.kind == "terasort":
            data = teragen(max(1, self.nbytes // _TERA_RECORD),
                           seed=self.seed)
            app = TeraSortApp.from_input(data, sample_every=29)
            inputs = {f"{self.name}.tera": data}
            overrides.setdefault("output_replication", 1)
            overrides.setdefault("compression", NO_COMPRESSION)
        else:  # kmeans
            app = KMeansApp(kmeans_centers(4, _KMEANS_DIMS,
                                           seed=self.seed + 1))
            inputs = {f"{self.name}.points":
                      kmeans_points(max(1, self.nbytes // (_KMEANS_DIMS * 4)),
                                    _KMEANS_DIMS, seed=self.seed)}
        return app, inputs, overrides


def synthetic_trace(n_jobs: int, seed: int = 0,
                    mean_interarrival: float = 0.002,
                    nbytes_choices: Sequence[int] = (16 * 1024, 32 * 1024,
                                                     64 * 1024),
                    kinds: Sequence[str] = TRACE_KINDS) -> List[JobRequest]:
    """A seeded mixed-workload arrival trace of ``n_jobs`` requests.

    Arrivals are Poisson (exponential interarrival at
    ``mean_interarrival`` virtual seconds); kind, size, tenant and
    priority are drawn uniformly per job from the given choices and the
    module's tenant and priority tuples.  Everything is derived from
    ``seed``, so the same call always yields the same trace.
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    rng = random.Random(seed)
    at = 0.0
    rows: List[JobRequest] = []
    for i in range(n_jobs):
        at += rng.expovariate(1.0 / mean_interarrival)
        rows.append(JobRequest(
            name=f"job{i:04d}",
            kind=rng.choice(list(kinds)),
            submit_at=at,
            tenant=rng.choice(_TENANTS),
            priority=rng.choice(_PRIORITIES),
            nbytes=rng.choice(list(nbytes_choices)),
            seed=seed * 100_003 + i,
        ))
    return rows


def dump_trace(rows: Sequence[JobRequest], path: str) -> None:
    """Write a trace as JSON lines-free, diff-friendly JSON."""
    payload = []
    for row in rows:
        record = asdict(row)
        if record.get("config"):
            raise ValueError(
                "config overrides are not serialisable to trace files; "
                "submit such jobs programmatically")
        record.pop("config", None)
        if record["cancel_at"] is None:
            record.pop("cancel_at")
        payload.append(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_trace(path: str) -> List[JobRequest]:
    """Read a trace written by :func:`dump_trace` (or by hand)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, list):
        raise ValueError(f"{path}: expected a JSON array of trace rows")
    return [JobRequest(**row) for row in payload]
