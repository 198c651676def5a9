"""Data units flowing through the pipelines."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Any, List, Sequence, Tuple, Union

import numpy as np

from repro.storage.records import KVSchema, PairColumns

__all__ = ["Chunk", "PairColumns", "MapOutput", "MapBlock", "KeyGroupChunk",
           "ReduceOutput"]

Pair = Tuple[Any, Any]


@dataclass
class Chunk:
    """One map-pipeline payload: a batch of records from one input split.

    With the default batch size a chunk is a whole split; smaller
    ``JobConfig.batch_size`` values slice a split into several chunks
    (``seq``/``last`` give the batch's position and ``nbytes`` its exact
    byte share).
    """

    index: int              # index of the owning split
    records: Sequence[bytes]  # fixed-size records: one ``V{size}`` array
    nbytes: int
    seq: int = 0            # batch number within the split
    last: bool = True       # final batch of the split?


@dataclass
class MapOutput:
    """Result of one map-kernel launch, before partitioning.  The buffer
    collector passes a kernel's :class:`PairColumns` through as is."""

    chunk_index: int
    pairs: PairColumns
    raw_bytes: int          # serialized size of ``pairs``
    decode_items: int       # items the partitioner must decode individually
    seq: int = 0            # batch position, carried over from the Chunk
    last: bool = True


class MapBlock:
    """One split's map output: its pairs in stable ``(partition, key)``
    order, partition ``p``'s bucket ``pairs[offsets[p]:offsets[p + 1]]``
    of ``raw[p]`` serialized bytes; ``pids`` are the non-empty ones.  The
    durable index, the pushers and the receivers' caches hold the block:
    a bucket is the block plus a pid, sliced only when it is merged."""

    __slots__ = ("split", "pairs", "offsets", "raw", "pids")

    def __init__(self, split: int, pairs: PairColumns, pids: Sequence[int],
                 n_partitions: int, schema: KVSchema):
        """Cut ``pairs``, in the order of their partitions ``pids``."""
        counts = np.bincount(np.asarray(pids, dtype=np.int64),
                             minlength=n_partitions)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        self.split, self.pairs, self.offsets = split, pairs, offsets.tolist()
        self.raw = schema.bucket_sizes(pairs, offsets)
        self.pids = np.flatnonzero(counts).tolist()

    def bucket(self, pid: int) -> PairColumns:
        """Partition ``pid``'s pairs (a slice of the block's columns)."""
        return self.pairs[self.offsets[pid]:self.offsets[pid + 1]]


@dataclass
class KeyGroupChunk:
    """Reduce input: up to ``concurrent_keys * keys_per_thread`` keys, as
    produced by the final multi-way merge.

    ``pairs`` is the chunk's slice of the partition's merged columns, cut
    at key boundaries; ``sizes[i]`` is how many of those pairs the chunk's
    ``i``-th key has.  A reducing kernel reads :attr:`groups`.
    """

    index: int
    pairs: PairColumns
    sizes: Sequence[int]    # a list, or an integer array (TeraSort's)
    nbytes: int

    @property
    def n_keys(self) -> int:
        return len(self.sizes)

    @property
    def n_values(self) -> int:
        return len(self.pairs)

    @property
    def groups(self) -> List[Tuple[Any, List[Any]]]:
        """The chunk as ``(key, [values])`` entries, each key the first of
        its run; built on every access, never stored."""
        keys, values = self.pairs.keys, self.pairs.values
        starts = list(accumulate(self.sizes, initial=0))
        return [(keys[a], list(values[a:b]))
                for a, b in zip(starts, starts[1:])]


@dataclass
class ReduceOutput:
    """Result of one reduce-kernel launch: a reducing kernel's pairs, or
    a map-only kernel's input columns as they are."""

    chunk_index: int
    pairs: Union[List[Pair], PairColumns]
    nbytes: int
