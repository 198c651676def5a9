"""Data units flowing through the pipelines."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Any, List, Sequence, Tuple, Union

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
    records: Sequence[bytes]  # fixed-size records: one ``V{size}`` array
    nbytes: int
    seq: int = 0            # batch number within the split
    last: bool = True       # final batch of the split?
    start: int = 0          # record offset of this batch within the split


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


class SortedRun(PairColumns):
    """A sorted batch of intermediate pairs, one partition's unit of
    merging; ``raw_bytes`` is its uncompressed serialized size.  Columns
    for every app: the partitioner cuts each as a slice of one ordered
    gather, and the push, the merger and the final merge carry it on."""

    __slots__ = ("raw_bytes",)

    def __init__(self, keys: Sequence, values: Sequence, raw_bytes: int):
        # Cut from equal-length columns by construction: no length check.
        self.keys, self.values, self.raw_bytes = keys, values, raw_bytes


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
