"""Data units flowing through the pipelines."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Any, List, Tuple, Union

from repro.storage.records import PairColumns

__all__ = ["Chunk", "PairColumns", "MapOutput", "SortedRun", "KeyGroupChunk",
           "ReduceOutput"]

Pair = Tuple[Any, Any]

_VALUE = itemgetter(1)


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
    """Reduce input: up to ``concurrent_keys * keys_per_thread`` keys, as
    produced by the final multi-way merge.

    ``pairs`` is the chunk's slice of the partition's merged pair list,
    cut at key boundaries; ``sizes[i]`` is how many of those pairs the
    chunk's ``i``-th key has.  A reducing kernel reads :attr:`groups`.
    """

    index: int
    pairs: List[Pair]
    sizes: List[int]
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
        pairs = self.pairs
        starts = list(accumulate(self.sizes, initial=0))
        return [(pairs[a][0], list(map(_VALUE, pairs[a:b])))
                for a, b in zip(starts, starts[1:])]


@dataclass
class ReduceOutput:
    """Result of one reduce-kernel launch."""

    chunk_index: int
    pairs: List[Pair]
    nbytes: int
