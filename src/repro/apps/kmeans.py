"""K-Means clustering (KM): one Lloyd iteration (§IV-A.2).

"KM is a compute-intensive application and its complexity is a function
of the number of dimensions, centers and observations. ... our
implementations perform just one iteration since this shows the
performance well for all frameworks."

The map kernel assigns every observation to its nearest center and emits
per-center partial sums; the reduce kernel averages them into the new
centers.  Real math is vectorised numpy; the cost model scales with
``points x centers x dims`` — abundant data parallelism, the paper's GPU
show-case (20x single-node gain on the GTX480).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.hw.specs import DeviceKind, DeviceSpec
from repro.ocl.kernel import KernelCost
from repro.storage.records import FixedRecordFormat, KVSchema

from repro.core.api import MapReduceApp

__all__ = ["KMeansApp"]

#: Effective device ops per point-center-dim.  More than the raw
#: subtract/square/accumulate triple: it folds in the divergent
#: min-index update and imperfect coalescing of a real OpenCL KM kernel.
#: Calibrated so that with the paper's 4096 centers the kernel dominates
#: I/O on the GTX480 (§IV-A.2: "the I/O time for all platforms and file
#: systems is negligible compared to the computation time").
_OPS_PER_PCD = 30.0


class KMeansApp(MapReduceApp):
    """One k-means iteration over packed float32 observation records."""

    has_combiner = True

    def __init__(self, centers: np.ndarray, cost_scale: float = 1.0):
        """``cost_scale`` multiplies the *modeled* kernel cost: the bench
        harness clusters against k real centers while charging the cost
        of ``cost_scale * k`` centers, so the paper's 4096-center
        operating point is reproduced without hours of real numpy work
        (output correctness is still verified at the real k)."""
        centers = np.asarray(centers, dtype=np.float32)
        if centers.ndim != 2:
            raise ValueError("centers must be a (k, dims) array")
        if cost_scale <= 0:
            raise ValueError("cost_scale must be positive")
        self.centers = centers
        self.cost_scale = cost_scale
        self.k, self.dims = centers.shape
        self.name = f"kmeans-k{self.k}"
        self.record_format = FixedRecordFormat(self.dims * 4)
        dims = self.dims
        self.inter_schema = KVSchema(
            "km-inter", key_bytes=4, value_bytes=4 * dims + 8)
        self.output_schema = KVSchema(
            "km-out", key_bytes=4, value_bytes=4 * dims)

    # -- MapReduce logic ----------------------------------------------------
    def map_batch(self, records: Sequence[bytes]
                  ) -> List[Tuple[int, Tuple[Tuple[float, ...], int]]]:
        if not len(records):
            return []
        points = records.view(np.float32)
        points = points.reshape(-1, self.dims)
        # Nearest centers via ||p||^2 - 2 p.c + ||c||^2 (blocked to bound
        # the distance-matrix working set — cache-friendliness per the
        # performance guides).
        c = self.centers
        c_norm = (c * c).sum(axis=1)
        assign = np.empty(len(points), dtype=np.int64)
        block = max(1, (1 << 22) // max(1, self.k))
        for lo in range(0, len(points), block):
            p = points[lo:lo + block]
            d = p @ c.T
            d *= -2.0
            d += c_norm[None, :]
            assign[lo:lo + len(p)] = np.argmin(d, axis=1)
        # One emit per observation — this is what the OpenCL kernel does;
        # aggregation is the *collector's* job (hash table + combiner), so
        # Table III's collector comparison stays faithful.
        coords = points.astype(np.float64).tolist()
        return [(int(cid), (tuple(vec), 1))
                for cid, vec in zip(assign.tolist(), coords)]

    def combine(self, key: int, values: List[Tuple[Tuple[float, ...], int]]
                ) -> List[Tuple[Tuple[float, ...], int]]:
        sums = np.asarray([v[0] for v in values], dtype=np.float64).sum(axis=0)
        count = sum(v[1] for v in values)
        return [(tuple(float(x) for x in sums), count)]

    def reduce(self, key: int, values: List[Tuple[Tuple[float, ...], int]]
               ) -> List[Tuple[int, Tuple[float, ...]]]:
        sums = np.asarray([v[0] for v in values], dtype=np.float64).sum(axis=0)
        count = sum(v[1] for v in values)
        center = sums / max(count, 1)
        return [(key, tuple(float(x) for x in center))]

    # -- cost models ------------------------------------------------------------
    def map_cost(self, device: DeviceSpec, n_records: int,
                 in_bytes: int) -> KernelCost:
        flops = (_OPS_PER_PCD * n_records * self.k * self.dims
                 * self.cost_scale)
        return KernelCost(flops=flops, device_bytes=2.0 * in_bytes)

    def combine_cost(self, device: DeviceSpec, n_pairs: int) -> KernelCost:
        return KernelCost(flops=2.0 * n_pairs * self.dims, launches=0)

    def reduce_cost(self, device: DeviceSpec, n_keys: int,
                    n_values: int) -> KernelCost:
        return KernelCost(flops=2.0 * n_values * self.dims + 10.0 * n_keys,
                          device_bytes=(4 * self.dims + 12.0) * n_values,
                          launches=0)

    def preferred_threads(self, device: DeviceSpec) -> int | None:
        # The paper tunes thread counts per device; GPUs want maximal
        # occupancy, CPUs one work-item per hardware thread (the default).
        if device.kind is DeviceKind.GPU:
            return device.compute_units
        return None
