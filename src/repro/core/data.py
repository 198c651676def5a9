"""Data units flowing through the pipelines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple, Union

from repro.storage.records import PairColumns

__all__ = ["Chunk", "PairColumns", "MapOutput", "SortedRun", "KeyGroupChunk",
           "ReduceOutput"]

Pair = Tuple[Any, Any]


@dataclass
class Chunk:
    """One map-pipeline payload: a batch of records from one input split.

    With the default batch size a chunk is a whole split; smaller
    ``JobConfig.batch_size`` values slice a split into several chunks
    (``seq``/``last`` give the batch's position, ``start`` its record
    offset within the split, and ``nbytes`` its exact byte share).
    """

    index: int              # index of the owning split
    records: List[bytes]
    nbytes: int
    seq: int = 0            # batch number within the split
    last: bool = True       # final batch of the split?
    start: int = 0          # record offset of this batch within the split


@dataclass
class MapOutput:
    """Result of one map-kernel launch, before partitioning.  The buffer
    collector passes a kernel's :class:`PairColumns` through as is."""

    chunk_index: int
    pairs: Union[List[Pair], PairColumns]
    raw_bytes: int          # serialized size of ``pairs``
    decode_items: int       # items the partitioner must decode individually
    seq: int = 0            # batch position, carried over from the Chunk
    last: bool = True


@dataclass
class SortedRun:
    """A sorted sequence of intermediate pairs (one partition's unit of
    merging).  ``raw_bytes`` is the uncompressed serialized size."""

    pairs: List[Pair]
    raw_bytes: int

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class KeyGroupChunk:
    """Reduce input: up to ``concurrent_keys * keys_per_thread`` keys with
    their grouped values, as produced by the final multi-way merge."""

    index: int
    groups: List[Tuple[Any, List[Any]]]
    nbytes: int

    @property
    def n_keys(self) -> int:
        return len(self.groups)

    @property
    def n_values(self) -> int:
        return sum(len(vs) for _, vs in self.groups)


@dataclass
class ReduceOutput:
    """Result of one reduce-kernel launch."""

    chunk_index: int
    pairs: List[Pair]
    nbytes: int
