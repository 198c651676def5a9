"""Measurement: cold set-up, verified reps, statistics, environment guard.

Load shape: one process, one thread, a closed loop with one client — reps
of one workload run back to back.  A rep is one *simulate* call (timed:
``wall_s``) followed by building the artefacts a ``--report-json`` user
gets (timed together: ``run_report_s``) and then, untimed, the checks.

The cyclic GC stays **enabled** in every rep, as a user runs it: it is a
quarter to a third of ``wall_s`` (sort-bulk 1.12 s paused, 1.52 s enabled),
so a change that doubles cyclic garbage must show.  What is taken out is
the benchmark's own heap: before each rep everything already alive (the
references, earlier set-ups) is collected once and then *frozen*
(:func:`gc.freeze`), so the collector walks what the rep allocates and
nothing else.  Left unfrozen, identical reps of ``shuffle-storm`` ranged
1.40-2.09 s, full collections walking a heap whose size differed rep to
rep; frozen, 1.44-1.80 s, no wider than with the collector off.

Host timings are **speed-normalised**.  This VM drifts between faster and
slower states that last from seconds to minutes (218 consecutive sort-bulk
reps over seven minutes ranged 1.29-1.92 s), so a 15 s run sits wholly in
one state and raw medians of runs are scattered.  A calibration slice —
three fixed kernels, about 0.1 s together — is therefore timed right
before and right after every timed region, and the region's seconds are
divided by the mean of the two slices (1.0 = the machine the first
baseline was measured on): seconds as they would read at reference
speed.  Over those 218 reps, medians of windows of eight spread 6.7 % raw
(range 27 %), 6.4 % (15 %) normalised by an integer loop alone, and 4.0 %
(13 %) by the three kernels together.  Raw seconds are reported beside
every normalised figure.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from perf import workloads
from perf.workloads import Prepared

__all__ = ["measure_setup", "Verifier", "Rep", "run_rep", "timed_reps",
           "environment", "summarize", "exact", "own_heap_frozen", "GcMeter",
           "Timing", "timed_region", "calibration_slice"]

_clock = time.perf_counter


# --------------------------------------------------------------- calibration
def _kernel_ints() -> None:
    acc = 0
    for i in range(1_000_000):
        acc += i * i & 7


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c


def _kernel_objects() -> None:
    cells = {}
    for i in range(40_000):
        cells[i] = _Cell(i, (i, i + 1), str(i))
    sum(cell.a for cell in sorted(cells.values(), key=lambda cell: cell.c))


def _kernel_events() -> None:
    def ticker():
        t = 0.0
        for _ in range(1500):
            t += 1.0
            yield t

    tickers = [ticker() for _ in range(40)]
    heap = [(next(g), k) for k, g in enumerate(tickers)]
    while heap:
        _, k = heapq.heappop(heap)
        try:
            heapq.heappush(heap, (next(tickers[k]), k))
        except StopIteration:
            pass


#: the calibration kernels — integer arithmetic, object allocation and
#: sorting, generators resumed off a heap (what the simulator itself is
#: made of) — and the seconds each took on the machine the first baseline
#: was measured on (medians over a 7-minute series); host timings are
#: scaled to it
_KERNELS = ((_kernel_ints, 0.0647), (_kernel_objects, 0.0174),
            (_kernel_events, 0.0222))


def _kernel_seconds() -> List[float]:
    """Seconds per calibration kernel, cyclic GC off while they run (what
    they allocate must not trigger a collection of the workload's heap)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        seconds = []
        for kernel, _ in _KERNELS:
            t0 = _clock()
            kernel()
            seconds.append(_clock() - t0)
        return seconds
    finally:
        if was_enabled:
            gc.enable()


def calibration_slice() -> float:
    """How slow this machine is right now: mean over the kernels of
    seconds taken / reference seconds (1.0 = reference speed, ~0.1 s)."""
    return statistics.fmean(
        t / ref for t, (_, ref) in zip(_kernel_seconds(), _KERNELS))


class Timing(NamedTuple):
    """One timed region: raw seconds and the machine-speed factor."""

    raw_s: float
    speed: float        # 1 / mean calibration slice around it

    @property
    def seconds(self) -> float:
        return self.raw_s * self.speed


class timed_region:
    """``with timed_region() as t:`` times its body between two calibration
    slices; ``t.timing(raw_s)`` normalises any raw duration taken inside
    (``t.timing()`` the whole body)."""

    def __enter__(self):
        self._before = calibration_slice()
        self._t0 = _clock()
        return self

    def __exit__(self, *exc):
        self._whole = _clock() - self._t0
        after = calibration_slice()
        self._speed = 2.0 / (self._before + after)

    def timing(self, raw_s: Optional[float] = None) -> Timing:
        return Timing(self._whole if raw_s is None else raw_s, self._speed)


# ---------------------------------------------------------------- statistics
def summarize(timings: Sequence[Timing]) -> Dict[str, float]:
    """Median, quartiles, min and n of a few speed-normalised host timings,
    and the raw median beside them.

    With n = 7 no tail percentile has ten samples beyond it, so none is
    reported."""
    values = [t.seconds for t in timings]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "n": len(values),
            "raw": statistics.median(t.raw_s for t in timings)}


def exact(value: float) -> Dict[str, float]:
    """Summary of a number that is not a host timing (one sample, as is)."""
    return {"value": value, "q1": value, "q3": value, "min": value, "n": 1,
            "raw": value}


# --------------------------------------------------------------- environment
def environment() -> Dict[str, Any]:
    """Where and under what load the numbers were taken."""
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "date": time.strftime("%Y-%m-%d"),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host.calib_s": min(sum(_kernel_seconds()) for _ in range(3)),
        "host.loadavg1": load1,
        # More runnable tasks than cores when we start: host timings are
        # suspect, and the run says so instead of silently reporting them.
        "noisy": load1 > nproc,
    }


# -------------------------------------------------------------------- set-up
def _purge_repro() -> None:
    for name in [n for n in sys.modules
                 if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


def measure_setup(name: str, seed: int, scale: str = "full",
                  budget_s: float = 3.0) -> "tuple[Prepared, List[Timing]]":
    """Set the workload up cold, several times; keep the last.

    Each repetition forgets every ``repro`` module first, so it pays the
    import, the input generation and the app construction again — work a
    later change moves into import time or behind a process-wide cache
    still shows.  Repeats until ``budget_s`` is spent (at least once, at
    most five times)."""
    times: List[Timing] = []
    prepared = None
    started = _clock()
    while len(times) < 5:
        prepared = None
        _purge_repro()
        gc.collect()
        with timed_region() as region:
            import repro  # noqa: F401  (timed: part of every cold set-up)
            prepared = workloads.prepare(name, seed, scale)
        times.append(region.timing())
        if _clock() - started >= budget_s:
            break
    return prepared, times


# ------------------------------------------------------------- verification
class Verifier:
    """References computed once; every rep is compared against them."""

    def __init__(self, prepared: Prepared):
        from repro.baselines.reference import run_reference
        self.prepared = prepared
        t0 = _clock()
        self.references = {
            label: _natural_order(run_reference(app, inputs))
            for label, app, inputs in prepared.jobs}
        self.verify_s = _clock() - t0
        self.first_stats: Optional[Dict[str, Any]] = None
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, result: Any) -> None:
        """Count every job of one rep as an operation; record failures."""
        prepared = self.prepared
        failed_jobs = set()
        results = prepared.job_results(result)
        for label, reference in self.references.items():
            job = results.get(label)
            if job is None:
                self._fail(failed_jobs, label, "did not complete")
                continue
            if job.stats["leaked_buffer_slots"] != 0:
                self._fail(failed_jobs, label,
                           f"leaked {job.stats['leaked_buffer_slots']} "
                           f"buffer slots")
            if not _outputs_equal(job.sorted_output(), reference):
                self._fail(failed_jobs, label, "output differs from "
                           "repro.baselines.reference.run_reference")
        stats = prepared.sim_stats(result)
        if self.first_stats is None:
            self.first_stats = stats
        elif stats != self.first_stats:
            changed = sorted(k for k in stats
                             if stats[k] != self.first_stats.get(k))
            for label in self.references:
                self._fail(failed_jobs, label, "simulated statistics differ "
                           f"from the first rep: {', '.join(changed)}")
        self.attempted += len(self.references)
        self.failed += len(failed_jobs)

    def _fail(self, failed_jobs: set, label: str, why: str) -> None:
        failed_jobs.add(label)
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {why}")

    def sim_digest(self, result: Any) -> int:
        """48-bit hash of every job's output and the simulated statistics:
        equal digests on two commits mean identical simulated behaviour."""
        outputs = {label: workloads.output_digest(job.sorted_output())
                   for label, job
                   in self.prepared.job_results(result).items()}
        blob = json.dumps([self.prepared.sim_stats(result), outputs],
                          sort_keys=True)
        return int(hashlib.sha256(blob.encode()).hexdigest()[:12], 16)


def _natural_order(pairs):
    """The order ``GlasswingResult.sorted_output`` uses."""
    return sorted(pairs, key=lambda kv: (kv[0].__class__.__name__, kv[0]))


def _outputs_equal(got, reference) -> bool:
    if got == reference:
        return True
    # Float reductions (k-means centres) sum in another order than the
    # sequential reference: keys exact, values close.
    if len(got) != len(reference):
        return False
    for (gk, gv), (rk, rv) in zip(got, reference):
        if gk != rk:
            return False
        if gv != rv and not (isinstance(gv, tuple) and isinstance(rv, tuple)
                             and len(gv) == len(rv)
                             and np.allclose(gv, rv, rtol=1e-4)):
            return False
    return True


# ---------------------------------------------------------------------- reps
@contextmanager
def own_heap_frozen():
    """A timed region with the cyclic GC enabled but blind to everything
    that was alive before it (see module doc).  Not re-entrant."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


class GcMeter:
    """Seconds spent inside the cyclic collector, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._t0 = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._t0 = _clock()
        else:
            self.seconds += _clock() - self._t0
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)


class Rep:
    __slots__ = ("wall", "run_report", "result")

    def __init__(self, wall: Timing, run_report: Timing, result: Any):
        self.wall = wall
        self.run_report = run_report
        self.result = result


def run_rep(prepared: Prepared) -> Rep:
    """One simulate call, then its artefacts; both consumed while timed."""
    with timed_region() as region:
        t0 = _clock()
        result = prepared.simulate()
        t1 = _clock()
        artefacts = prepared.artefacts(result)
        t2 = _clock()
    if not artefacts:
        raise RuntimeError("empty report")
    return Rep(region.timing(t1 - t0), region.timing(t2 - t0), result)


def timed_reps(prepared: Prepared, verifier: Verifier,
               seconds: Optional[float], reps: Optional[int]) -> List[Rep]:
    """Timed, verified reps: exactly ``reps`` of them, or as many as fit
    in ``seconds`` (never fewer than three).  Results are dropped once
    checked; only the timings are kept."""
    done: List[Rep] = []
    started = _clock()
    while True:
        if reps is not None:
            if len(done) >= reps:
                break
        elif len(done) >= 3 and _clock() - started >= seconds:
            break
        with own_heap_frozen():
            rep = run_rep(prepared)
        verifier.check(rep.result)
        rep.result = None
        done.append(rep)
    return done


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
