"""Record-aligned split reading (Hadoop-style line protocol).

A text split owns exactly the records whose *first byte* lies inside its
byte range.  Non-first splits therefore skip the partial record at their
head (it belongs to the predecessor) and every split reads ahead past its
end to complete its last record.  This module implements that protocol as
a pure function plus the backend-reading wrapper, so the invariant —
every record appears in exactly one split — is directly testable.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.hw.specs import KiB
from repro.storage.backend import StorageBackend
from repro.storage.records import FixedRecordFormat, TextRecordFormat

from repro.core.coordinator import Split

__all__ = ["split_text_lines", "read_split_records", "LOOKAHEAD",
           "RecordTooLong"]

#: read-ahead past the split end; must exceed the longest input line.
#: Kept small (the generators produce sub-200-byte lines) because the
#: read-ahead may cross into a remote block.
LOOKAHEAD = 8 * KiB


class RecordTooLong(ValueError):
    """An input line exceeded the reader's look-ahead window.

    The split protocol completes a split's last record by reading
    ``LOOKAHEAD`` bytes past the boundary; a longer record cannot be
    reassembled and silently truncating it would corrupt the job's
    output, so it is an error instead.
    """


def split_text_lines(raw: bytes, base: int, split_end: int,
                     first: Optional[bool] = None, at_eof: bool = True
                     ) -> List[bytes]:
    """Lines starting within the split's byte range of a file.

    ``raw`` is the file content from ``base`` through at least the end of
    the last owned line (or EOF).  For non-first splits ``base`` is
    ``offset - 1`` so the first byte tells whether ``offset`` starts a
    fresh line; ``first`` marks the split at offset 0 (default: inferred
    from ``base == 0``, which is only safe when no split starts at
    offset 1 — pass it explicitly).  ``at_eof`` says whether ``raw``
    reaches the end of the file: a missing final newline is only a valid
    last record at EOF, otherwise the record continues beyond the window
    and :class:`RecordTooLong` is raised.
    """
    if first is None:
        first = base == 0
    if first:
        pos = 0
    else:
        nl = raw.find(b"\n")
        if nl == -1:
            if not at_eof and len(raw) > split_end - base:
                raise RecordTooLong(
                    f"no record boundary within the {len(raw)}-byte window "
                    f"at offset {base}")
            return []  # the whole window is the middle of one long record
        pos = nl + 1
    # A line is owned when it starts before ``limit``; the last owned one
    # ends at the first newline at or after ``limit - 1``.
    limit = split_end - base
    if pos >= limit:
        return []
    end = raw.find(b"\n", limit - 1)
    if end != -1:
        return raw[pos:end].split(b"\n")
    records = raw[pos:].split(b"\n")
    tail = records.pop()
    if tail:
        if not at_eof:
            raise RecordTooLong(
                f"record starting at offset {base + len(raw) - len(tail)} "
                "exceeds the reader's look-ahead window")
        records.append(tail)  # final line without trailing newline
    return records


def read_split_records(backend: StorageBackend, node_id: int, split: Split,
                       record_format, lookahead: int = LOOKAHEAD
                       ) -> Generator:
    """Read one split's records; returns ``(records, payload_bytes)``.

    ``payload_bytes`` is the split's own length — the amount of input data
    this chunk accounts for (read-ahead bytes are charged to I/O but not
    double-counted as payload).
    """
    if isinstance(record_format, FixedRecordFormat):
        if split.offset % record_format.record_size or \
                split.length % record_format.record_size:
            raise ValueError(
                f"split {split.index} not aligned to "
                f"{record_format.record_size}-byte records")
        data = yield from backend.read(node_id, split.path, split.offset,
                                       split.length)
        return record_format.split_records(data), split.length
    if isinstance(record_format, TextRecordFormat):
        first = split.offset == 0
        base = split.offset - 1 if not first else 0
        end = split.offset + split.length
        want = end - base + lookahead
        data = yield from backend.read(node_id, split.path, base, want)
        at_eof = base + len(data) >= backend.size(split.path)
        return (split_text_lines(data, base, end, first=first,
                                 at_eof=at_eof),
                split.length)
    raise TypeError(f"unsupported record format {record_format!r}")
