"""Multi-round parallel prefix sums (the MRC warhorse).

Goodrich et al. ("Sorting, Searching, and Simulation in the MapReduce
Framework") build their simulation results on multi-round primitives of
exactly this shape: round one computes per-block partial sums, a fan-in
combines them into exclusive block offsets, and round two turns each
block into its slice of the global scan.  Here that is two chained
Glasswing stages in one :class:`~repro.dag.graph.DAG`:

* :class:`PrefixBlockSumApp` — map ``(index, value)`` records to
  ``(block, value)``; reduce sums each block (exact int64 math).
* the block sums are *broadcast* (tiny per-round state, like k-means
  centers): the driver exclusive-scans them into per-block offsets;
* :class:`PrefixScanApp` — re-reads the same (cached!) input, reduces
  each block by sorting its records on index and emitting the running
  sum seeded with the block's offset.

Input records are 16 bytes: two little-endian int64s ``(index, value)``.
All arithmetic is integer, so the output is bit-exact against
``numpy.cumsum`` — the differential tests compare with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hw.specs import ClusterSpec, DeviceSpec
from repro.ocl.kernel import KernelCost
from repro.storage.records import FixedRecordFormat, KVSchema

from repro.core.api import MapReduceApp
from repro.core.config import JobConfig

__all__ = ["PrefixBlockSumApp", "PrefixScanApp", "PrefixRun",
           "prefix_sums", "RECORD_SIZE"]

RECORD_SIZE = 16  # <i8 index + <i8 value


def _decode(records: np.ndarray) -> np.ndarray:
    """A split's records as an ``(n, 2)`` int64 array of (index, value)
    rows."""
    return records.view("<i8").reshape(-1, 2)


class PrefixBlockSumApp(MapReduceApp):
    """Round one: per-block partial sums of the value stream."""

    has_combiner = True
    record_format = FixedRecordFormat(RECORD_SIZE)

    def __init__(self, block_size: int):
        if block_size < 1:
            raise ValueError("block_size must be positive")
        self.block_size = block_size
        self.name = f"prefix-blocksum-b{block_size}"
        self.inter_schema = KVSchema(
            "psum-inter", key_bytes=8, value_bytes=8)
        self.output_schema = KVSchema(
            "psum-out", key_bytes=8, value_bytes=8)

    def map_batch(self, records: Sequence[bytes]) -> List[Tuple[int, int]]:
        rows = _decode(records)
        blocks = rows[:, 0] // self.block_size
        return list(zip(blocks.tolist(), rows[:, 1].tolist()))

    def combine(self, key: int, values: List[int]) -> List[int]:
        return [sum(values)]

    def reduce(self, key: int, values: List[int]) -> List[Tuple[int, int]]:
        return [(key, sum(values))]

    def map_cost(self, device: DeviceSpec, n_records: int,
                 in_bytes: int) -> KernelCost:
        return KernelCost(flops=4.0 * n_records, device_bytes=2.0 * in_bytes)

    def reduce_cost(self, device: DeviceSpec, n_keys: int,
                    n_values: int) -> KernelCost:
        return KernelCost(flops=1.0 * n_values + 4.0 * n_keys,
                          device_bytes=16.0 * n_values, launches=0)


class PrefixScanApp(MapReduceApp):
    """Round two: each block becomes its slice of the global scan.

    ``offsets[block]`` is the exclusive prefix (sum of every earlier
    block) fanned in from round one.  The reduce sorts the block's
    records by index — arrival order depends on scheduling, the output
    must not — and emits the inclusive running sum per index.
    """

    record_format = FixedRecordFormat(RECORD_SIZE)

    def __init__(self, offsets: Dict[int, int], block_size: int):
        if block_size < 1:
            raise ValueError("block_size must be positive")
        self.offsets = dict(offsets)
        self.block_size = block_size
        self.name = f"prefix-scan-b{block_size}"
        self.inter_schema = KVSchema(
            "pscan-inter", key_bytes=8, value_bytes=16)
        self.output_schema = KVSchema(
            "pscan-out", key_bytes=8, value_bytes=8)

    def map_batch(self, records: Sequence[bytes]
                  ) -> List[Tuple[int, Tuple[int, int]]]:
        rows = _decode(records)
        blocks = rows[:, 0] // self.block_size
        return [(int(b), (int(i), int(v)))
                for b, (i, v) in zip(blocks.tolist(), rows.tolist())]

    def reduce(self, key: int, values: List[Tuple[int, int]]
               ) -> List[Tuple[int, int]]:
        running = self.offsets.get(key, 0)
        out: List[Tuple[int, int]] = []
        for index, value in sorted(values):
            running += value
            out.append((index, running))
        return out

    def map_cost(self, device: DeviceSpec, n_records: int,
                 in_bytes: int) -> KernelCost:
        return KernelCost(flops=4.0 * n_records, device_bytes=2.0 * in_bytes)

    def reduce_cost(self, device: DeviceSpec, n_keys: int,
                    n_values: int) -> KernelCost:
        # Dominated by the per-block index sort.
        n = max(n_values, 1)
        return KernelCost(flops=4.0 * n * max(np.log2(n), 1.0),
                          device_bytes=24.0 * n_values, launches=0)


@dataclass
class PrefixRun:
    """Outcome of a two-round prefix-sums DAG."""

    prefix: np.ndarray                   # inclusive scan, index order
    block_sums: Dict[int, int]
    dag_result: Any                      # repro.dag.DagResult
    runner: Any                          # the DagRunner (session reuse)

    @property
    def total_time(self) -> float:
        return self.dag_result.total_time


def exclusive_offsets(block_sums: Dict[int, int]) -> Dict[int, int]:
    """Block id -> sum of every earlier block (the fan-in step)."""
    offsets: Dict[int, int] = {}
    running = 0
    for block in sorted(block_sums):
        offsets[block] = running
        running += block_sums[block]
    return offsets


def prefix_sums(values: bytes, cluster_spec: ClusterSpec,
                config: Optional[JobConfig] = None,
                block_size: int = 4096,
                runner: Optional[Any] = None,
                costs: Optional[Any] = None) -> PrefixRun:
    """Inclusive prefix sums of packed ``(index, value)`` int64 records.

    Builds the two-stage DAG (block sums -> broadcast offsets -> scan)
    and runs it on ``runner`` (a fresh :class:`~repro.dag.DagRunner` on
    ``cluster_spec`` when not given — pass one in to share its session
    and cache across calls).
    """
    from repro.dag import DAG, DagRunner

    if len(values) % RECORD_SIZE:
        raise ValueError(
            f"values blob must be a multiple of {RECORD_SIZE} bytes")
    n = len(values) // RECORD_SIZE
    if runner is None:
        kwargs = {} if costs is None else {"costs": costs}
        runner = DagRunner(cluster_spec, config=config, **kwargs)

    dag = DAG("prefix-sums")
    dag.add_input("prefix-values.bin", values)
    dag.add_stage(
        "blocksum", PrefixBlockSumApp(block_size), ["prefix-values.bin"],
        publish=lambda pairs: {"block_sums": dict(pairs)})
    dag.add_stage(
        "scan",
        lambda b: PrefixScanApp(exclusive_offsets(b["block_sums"]),
                                block_size),
        ["prefix-values.bin"],
        after=["blocksum"])

    result = runner.run(dag)
    block_sums = result.broadcast["block_sums"]
    prefix = np.zeros(n, dtype=np.int64)
    for index, total in result.outputs["scan"]:
        prefix[index] = total
    return PrefixRun(prefix=prefix, block_sums=block_sums,
                     dag_result=result, runner=runner)
