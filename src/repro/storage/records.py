"""Record formats, key/value size schemas and the compression model.

Engines move *real* Python objects through the pipeline; timing needs the
*byte size* those objects would occupy serialized.  A :class:`KVSchema`
provides analytic per-pair sizes, and a :class:`CompressionModel` turns
raw bytes into stored bytes plus host-CPU cost, as Glasswing keeps all
intermediate partitions "in a serialized and compressed form".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import (Any, Callable, Iterable, Iterator, List, Sequence, Tuple,
                    Union)

import numpy as np

__all__ = [
    "TextRecordFormat",
    "FixedRecordFormat",
    "PairColumns",
    "KVSchema",
    "CompressionModel",
]

_PAIR_OVERHEAD = 8  # two 32-bit length prefixes per serialized pair


# ----------------------------------------------------------- record formats
class TextRecordFormat:
    """Newline-delimited text records (web logs, wiki dumps)."""

    name = "text"
    record_size = None          # records are variable-length lines

    def split_records(self, data: bytes) -> List[bytes]:
        """Split a chunk into complete-line records (drops trailing blank)."""
        records = data.split(b"\n")
        if records[-1] == b"":
            records.pop()
        return records

    def record_bytes(self, record: bytes) -> int:
        return len(record) + 1  # + newline


class FixedRecordFormat:
    """Fixed-size binary records (TeraSort's 100-byte key/value records)."""

    name = "fixed"

    def __init__(self, record_size: int):
        if record_size < 1:
            raise ValueError("record_size must be positive")
        self.record_size = record_size

    def split_records(self, data: bytes) -> np.ndarray:
        """Whole records as one ``V{record_size}`` array over ``data`` (a
        void element keeps trailing NULs); a ragged tail is an error."""
        n = self.record_size
        if len(data) % n:
            raise ValueError(
                f"chunk of {len(data)} bytes is not a multiple of {n}")
        return np.frombuffer(data, dtype=f"V{n}")


# ------------------------------------------------------------- pair batches
class PairColumns:
    """A batch of key/value pairs held as two equal-length columns.

    ``keys[i]`` pairs with ``values[i]``; no per-pair tuple exists until
    something iterates the batch.  From the collector to the job's output
    every stage carries its pairs so, and reads the columns directly: the
    partitioner takes a partition index per key and one stable order of
    the keys, and a slice or :meth:`take` cuts or reorders both columns at
    once.  To every other consumer the batch is a sized iterable of
    ``(key, value)`` tuples.  Both columns are sequences, or both 1-D
    arrays (TeraSort's ``V10``/``V90`` views), kept arrays until iterated.
    """

    __slots__ = ("keys", "values")

    def __init__(self, keys: Sequence[Any], values: Sequence[Any]):
        if len(keys) != len(values):
            raise ValueError(
                f"PairColumns needs equal-length columns, got {len(keys)} "
                f"keys and {len(values)} values")
        self.keys = keys
        self.values = values

    @classmethod
    def of(cls, pairs: Iterable[Tuple[Any, Any]]) -> "PairColumns":
        """``pairs`` as columns (a list of tuples is split in two)."""
        if isinstance(pairs, PairColumns):
            return pairs
        return cls(list(map(_KEY, pairs)), list(map(_VALUE, pairs)))

    @classmethod
    def concat(cls, batches: Iterable["PairColumns"]) -> "PairColumns":
        """Several batches end to end (a lone batch as is)."""
        batches = list(batches)
        if len(batches) == 1:
            return batches[0]
        keys, values = [b.keys for b in batches], [b.values for b in batches]
        if keys and all(isinstance(k, np.ndarray) for k in keys):
            return cls(np.concatenate(keys), np.concatenate(values))
        return cls(tuple(chain.from_iterable(keys)),
                   tuple(chain.from_iterable(values)))

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Tuple[Any, Any]]:
        if isinstance(self.keys, np.ndarray):    # void elements as bytes
            return zip(self.keys.tolist(), self.values.tolist())
        return zip(self.keys, self.values)

    def __getitem__(self, index: Union[int, slice]) -> Any:
        """A slice of the pairs as columns, or one pair as a tuple."""
        if isinstance(index, slice):
            return PairColumns(self.keys[index], self.values[index])
        if isinstance(self.keys, np.ndarray):
            return self.keys[index].tolist(), self.values[index].tolist()
        return self.keys[index], self.values[index]

    def take(self, order: Sequence[int]) -> "PairColumns":
        """The pairs at positions ``order``: both columns gathered by index."""
        if isinstance(self.keys, np.ndarray):
            return PairColumns(self.keys[order], self.values[order])
        return PairColumns(tuple(map(self.keys.__getitem__, order)),
                           tuple(map(self.values.__getitem__, order)))


# ------------------------------------------------------------- KV schemas
#: serialized width of a key or value: a fixed byte count, or a function
#: of the object (``len`` for raw bytes)
Width = Union[int, Callable[[Any], int]]

_KEY, _VALUE = itemgetter(0), itemgetter(1)


@dataclass(frozen=True)
class KVSchema:
    """Analytic serialized sizes for an application's key/value types.

    Each width is either an ``int`` — every key (value) serializes to that
    many bytes, as TeraSort's 10-byte keys do — or a callable giving the
    width of one object, e.g. ``KVSchema("wc-inter", key_bytes=len,
    value_bytes=4)``.  A fixed width costs :meth:`size_of` nothing per
    pair; a callable is mapped over the batch in one pass.
    """

    name: str
    key_bytes: Width
    value_bytes: Width

    def __post_init__(self) -> None:
        for field in ("key_bytes", "value_bytes"):
            width = getattr(self, field)
            if callable(width):
                continue
            if (isinstance(width, bool) or not isinstance(width, int)
                    or width < 0):
                raise ValueError(
                    f"{self.name}: {field} must be a non-negative int or "
                    f"a callable, not {width!r}")

    def pair_bytes(self, key: Any, value: Any) -> int:
        """Serialized size of one pair, including framing overhead."""
        kb, vb = self.key_bytes, self.value_bytes
        return ((kb(key) if callable(kb) else kb)
                + (vb(value) if callable(vb) else vb) + _PAIR_OVERHEAD)

    def size_of(self, pairs: Iterable[Tuple[Any, Any]]) -> int:
        """Total serialized size of a pair collection (tuples or
        :class:`PairColumns`)."""
        if isinstance(pairs, PairColumns):
            keys, values = pairs.keys, pairs.values
            n = len(keys)
        else:
            if not hasattr(pairs, "__len__"):
                pairs = list(pairs)  # an iterator is consumed exactly once
            keys, values = map(_KEY, pairs), map(_VALUE, pairs)
            n = len(pairs)
        total = _PAIR_OVERHEAD * n
        for width, column in ((self.key_bytes, keys),
                              (self.value_bytes, values)):
            if not callable(width):
                total += width * n
            elif isinstance(column, np.ndarray):    # ``len`` of a void is 0
                raise TypeError(f"{self.name}: a callable width cannot "
                                f"size an array column")
            else:
                total += sum(map(width, column))
        return total

    def bucket_sizes(self, pairs: PairColumns,
                     offsets: np.ndarray) -> List[int]:
        """:meth:`size_of` of every slice ``[offsets[i], offsets[i + 1])``
        of ``pairs`` in one pass: differences of one running sum."""
        sizes = np.full(len(pairs), _PAIR_OVERHEAD, dtype=np.int64)
        for width, column in ((self.key_bytes, pairs.keys),
                              (self.value_bytes, pairs.values)):
            if not callable(width):
                sizes += width
            elif isinstance(column, np.ndarray):
                raise TypeError(f"{self.name}: a callable width cannot "
                                f"size an array column")
            else:
                sizes += np.fromiter(map(width, column), np.int64, len(sizes))
        running = np.concatenate(([0], np.cumsum(sizes)))
        return (running[offsets[1:]] - running[offsets[:-1]]).tolist()


# --------------------------------------------------------------- compression
@dataclass(frozen=True)
class CompressionModel:
    """Cost/effect of the intermediate-data compressor.

    ``ratio`` is output/input size; throughputs are per host thread.
    A ratio of 1.0 with infinite rates models "no compression".
    """

    ratio: float = 0.45                # typical LZ-class on text kv data
    compress_bw: float = 250e6         # bytes/s per thread
    decompress_bw: float = 500e6

    def __post_init__(self) -> None:
        if not (0 < self.ratio <= 1.0):
            raise ValueError("ratio must be in (0, 1]")
        if min(self.compress_bw, self.decompress_bw) <= 0:
            raise ValueError("compression rates must be positive")

    def compressed_size(self, raw_bytes: int) -> int:
        return int(raw_bytes * self.ratio)

    def compress_seconds(self, raw_bytes: int) -> float:
        """Single-thread CPU seconds to compress ``raw_bytes``."""
        return raw_bytes / self.compress_bw

    def decompress_seconds(self, raw_bytes: int) -> float:
        """Single-thread CPU seconds to reinflate to ``raw_bytes``."""
        return raw_bytes / self.decompress_bw


NO_COMPRESSION = CompressionModel(ratio=1.0, compress_bw=1e18,
                                  decompress_bw=1e18)

__all__.append("NO_COMPRESSION")
