"""Batched hot-path execution: granularity helpers.

The simulator charges costs through analytical models that are linear in
records and bytes (rooflines, stream bandwidths, per-item decode/merge
constants), so the *unit of simulation* — how many records ride one
pipeline payload — is free to change without changing virtual time.  A
``batch_size`` of 1 simulates record-at-a-time (the ground truth the
differential harness compares against); larger batches coalesce records
into chunks, slashing Python-side event counts while the cost model keeps
charging the same totals.  See ``docs/performance.md``.

Three pure helpers live here:

* :func:`autotune_batch_size` — the default batch size when the job does
  not pin one: the largest useful batch (one batch per input split).
* :func:`slice_batches` — cut a record list into batch-sized runs.
* :func:`apportion_bytes` — split an integer byte total across batches so
  the per-batch sizes sum *exactly* to the total (largest-remainder
  rounding).  Byte counters must be invariant under re-batching; naive
  ``int(total * fraction)`` rounding leaks bytes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = ["autotune_batch_size", "resolve_batch_size", "slice_batches",
           "apportion_bytes"]


def autotune_batch_size(chunk_size: int,
                        record_size: Optional[int] = None) -> int:
    """Pick the default batch size for a job that didn't set one.

    Per-batch charging is linear, so the cheapest-to-simulate batch is
    the biggest one: a single batch per split.  The returned value is an
    upper bound on any split's record count — ``chunk_size // record_size``
    for fixed-size records, ``chunk_size`` for byte-delimited text (a
    record occupies at least one byte) — so the map reader never slices.
    Jobs wanting finer granularity (differential testing, per-record
    ground truth) set ``JobConfig.batch_size`` explicitly.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if record_size is not None:
        if record_size < 1:
            raise ValueError("record_size must be positive")
        return max(1, -(-chunk_size // record_size))
    return chunk_size


def resolve_batch_size(config, record_format) -> int:
    """The job's effective batch size: the configured knob, or the
    autotuned one-batch-per-split default derived from the chunk size and
    the app's record format."""
    if config.batch_size is not None:
        return config.batch_size
    return autotune_batch_size(config.chunk_size, record_format.record_size)


def slice_batches(records: Sequence, batch_size: int) -> List[Sequence]:
    """Cut ``records`` into runs of at most ``batch_size``.

    Always returns at least one (possibly empty) batch so an empty split
    still produces a pipeline payload, exactly as the unbatched path did.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return [records[i:i + batch_size]
            for i in range(0, max(len(records), 1), batch_size)]


def apportion_bytes(total: int, weights: Sequence[int]) -> List[int]:
    """Integer split of ``total`` proportional to ``weights``, summing
    exactly to ``total`` (largest-remainder method).

    Zero-weight entries get zero.  With an all-zero weight vector the
    total goes to the first entry (degenerate but lossless).
    """
    if total < 0:
        raise ValueError("negative total")
    if not weights:
        if total:
            raise ValueError("cannot apportion a non-zero total to nothing")
        return []
    wsum = sum(weights)
    if wsum == 0:
        return [total] + [0] * (len(weights) - 1)
    shares = [total * w / wsum for w in weights]
    floors = [int(s) for s in shares]
    shortfall = total - sum(floors)
    # Hand the leftover units to the largest fractional remainders,
    # breaking ties by position for determinism.
    order = sorted(range(len(weights)), key=lambda i: (floors[i] - shares[i], i))
    for i in order[:shortfall]:
        floors[i] += 1
    return floors
