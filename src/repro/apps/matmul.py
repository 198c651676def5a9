"""Tiled Matrix Multiply (MM) (§IV-A.2).

"Our implementation of MM multiplies two square matrices A and B by
tiling them into multiple sub-matrices.  Each sub-matrix is identified by
the coordinate of its top left row and column."

One input record is one partial-product task ``(i, j, k, A_ik, B_kj)``;
the map kernel computes ``A_ik @ B_kj`` and emits it under key ``(i, j)``;
the reduce kernel sums the partial tiles into ``C_ij``.  Compute-bound but
with a large data volume, which is what caps its GPU gains in the paper
(Fig 3d: I/O-bound on the GPU when combined with HDFS).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.hw.specs import DeviceKind, DeviceSpec
from repro.ocl.kernel import KernelCost
from repro.storage.records import FixedRecordFormat, KVSchema

from repro.core.api import MapReduceApp
from repro.apps.datagen import matmul_record_size

__all__ = ["MatMulApp"]


class MatMulApp(MapReduceApp):
    """C = A @ B over ``tile``-sized sub-matrix tasks."""

    has_combiner = True

    def __init__(self, tile: int, cost_scale: float = 1.0):
        """``cost_scale`` multiplies the modeled kernel flops — the bench
        harness multiplies real ``tile``-sized sub-matrices while
        charging the arithmetic intensity of the paper's larger tiles
        (flops grow with tile^3 but bytes only with tile^2)."""
        if tile < 1:
            raise ValueError("tile must be positive")
        if cost_scale <= 0:
            raise ValueError("cost_scale must be positive")
        self.tile = tile
        self.cost_scale = cost_scale
        self.name = f"matmul-t{tile}"
        self.record_format = FixedRecordFormat(matmul_record_size(tile))
        tile_bytes = tile * tile * 4
        self.inter_schema = KVSchema(
            "mm-inter", key_bytes=8, value_bytes=tile_bytes)
        self.output_schema = KVSchema(
            "mm-out", key_bytes=8, value_bytes=tile_bytes)

    # -- MapReduce logic ----------------------------------------------------
    def map_batch(self, records: Sequence[bytes]
                  ) -> List[Tuple[Tuple[int, int], bytes]]:
        t = self.tile
        rows = records.view(np.uint8).reshape(
            -1, self.record_format.record_size)
        ij = rows[:, :8].view("<i4").tolist()
        tiles = rows[:, 12:].view(np.float32).reshape(-1, 2, t, t)
        return [((i, j), (a @ b).tobytes())
                for (i, j), (a, b) in zip(ij, tiles)]

    def combine(self, key: Tuple[int, int], values: List[bytes]
                ) -> List[bytes]:
        return [self._sum_tiles(values)]

    def reduce(self, key: Tuple[int, int], values: List[bytes]
               ) -> List[Tuple[Tuple[int, int], bytes]]:
        return [(key, self._sum_tiles(values))]

    def _sum_tiles(self, values: List[bytes]) -> bytes:
        acc = np.frombuffer(values[0], dtype=np.float32).copy()
        for v in values[1:]:
            acc += np.frombuffer(v, dtype=np.float32)
        return acc.tobytes()

    # -- cost models ------------------------------------------------------------
    def map_cost(self, device: DeviceSpec, n_records: int,
                 in_bytes: int) -> KernelCost:
        flops = 2.0 * n_records * float(self.tile) ** 3 * self.cost_scale
        return KernelCost(flops=flops, device_bytes=2.0 * in_bytes)

    def combine_cost(self, device: DeviceSpec, n_pairs: int) -> KernelCost:
        return KernelCost(flops=float(n_pairs) * self.tile * self.tile,
                          launches=0)

    def reduce_cost(self, device: DeviceSpec, n_keys: int,
                    n_values: int) -> KernelCost:
        tile_elems = self.tile * self.tile
        return KernelCost(flops=float(n_values) * tile_elems,
                          device_bytes=4.0 * tile_elems * (n_values + n_keys),
                          launches=0)

    def preferred_threads(self, device: DeviceSpec) -> int | None:
        # Two workload divisions (§IV-A.2): GPUs spread each result tile
        # over a thread group; CPUs give each thread a whole tile.
        if device.kind is DeviceKind.GPU:
            return device.compute_units
        return None

    # -- verification helper ----------------------------------------------------
    def assemble(self, pairs: Sequence[Tuple[Tuple[int, int], bytes]],
                 matrix_size: int) -> np.ndarray:
        """Rebuild the full C matrix from output pairs (for tests)."""
        t = self.tile
        c = np.zeros((matrix_size, matrix_size), dtype=np.float32)
        for (i, j), blob in pairs:
            tile = np.frombuffer(blob, dtype=np.float32).reshape(t, t)
            c[i * t:(i + 1) * t, j * t:(j + 1) * t] = tile
        return c
