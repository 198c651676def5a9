"""Tests for record-aligned split reading (the Hadoop line protocol)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.splitread import split_text_lines


def lines_via_splits(data: bytes, split_size: int, lookahead: int = 1 << 16):
    """Read ``data`` as consecutive splits; concatenate their records."""
    records = []
    offset = 0
    while offset < len(data):
        end = min(offset + split_size, len(data))
        first = offset == 0
        base = offset - 1 if not first else 0
        raw = data[base:end + lookahead]
        records.extend(split_text_lines(raw, base, end, first=first))
        offset = end
    return records


def test_single_split_gets_all_lines():
    data = b"alpha\nbeta\ngamma\n"
    assert lines_via_splits(data, 1000) == [b"alpha", b"beta", b"gamma"]


def test_missing_trailing_newline_keeps_last_line():
    data = b"alpha\nbeta"
    assert lines_via_splits(data, 1000) == [b"alpha", b"beta"]


def test_split_boundary_inside_record():
    data = b"aaaa\nbbbb\ncccc\n"
    # Splits of 7 bytes cut inside "bbbb": it must appear exactly once.
    assert lines_via_splits(data, 7) == [b"aaaa", b"bbbb", b"cccc"]


def test_split_boundary_exactly_after_newline():
    data = b"aaaa\nbbbb\n"
    # Split boundary at offset 5 = start of "bbbb".
    assert lines_via_splits(data, 5) == [b"aaaa", b"bbbb"]


def test_empty_lines_preserved():
    data = b"a\n\nb\n"
    assert lines_via_splits(data, 3) == [b"a", b"", b"b"]


def test_tiny_splits():
    data = b"one\ntwo\nthree\nfour\n"
    for size in range(1, len(data) + 1):
        assert lines_via_splits(data, size) == [b"one", b"two", b"three",
                                                b"four"], size


@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(st.binary(max_size=30).filter(lambda b: b"\n" not in b),
                   min_size=0, max_size=40),
    split_size=st.integers(min_value=1, max_value=200),
    trailing=st.booleans(),
)
def test_every_record_in_exactly_one_split(lines, split_size, trailing):
    """Property: concatenating all splits' records == the file's records."""
    data = b"\n".join(lines)
    if trailing and lines:
        data += b"\n"
    expected = data.split(b"\n")
    if expected and expected[-1] == b"":
        expected.pop()
    assert lines_via_splits(data, split_size) == expected


# ------------------------------------------- the per-line loop, as reference
def _split_text_lines_per_line(raw, base, split_end, first, at_eof):
    """``split_text_lines`` as it was — a ``find`` and a slice per line —
    kept as the reference for the one-``split`` body."""
    from repro.core.splitread import RecordTooLong
    if first:
        pos = 0
    else:
        nl = raw.find(b"\n")
        if nl == -1:
            if not at_eof and len(raw) > split_end - base:
                raise RecordTooLong(
                    f"no record boundary within the {len(raw)}-byte window "
                    f"at offset {base}")
            return []
        pos = nl + 1
    records = []
    while base + pos < split_end:
        nl = raw.find(b"\n", pos)
        if nl == -1:
            tail = raw[pos:]
            if tail:
                if not at_eof:
                    raise RecordTooLong(
                        f"record starting at offset {base + pos} exceeds "
                        "the reader's look-ahead window")
                records.append(tail)
            break
        records.append(raw[pos:nl])
        pos = nl + 1
    return records


def _outcome(fn, *args):
    from repro.core.splitread import RecordTooLong
    try:
        return fn(*args)
    except RecordTooLong as exc:
        return ("RecordTooLong", str(exc))


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(st.binary(max_size=12).filter(lambda b: b"\n" not in b),
                   max_size=25),
    trailing=st.booleans(),
    split_size=st.integers(min_value=1, max_value=60),
    lookahead=st.integers(min_value=0, max_value=20),
)
def test_equals_the_per_line_loop(lines, trailing, split_size, lookahead):
    """Every ``(base, split_end, first, at_eof)`` the reader produces for
    a file, with a look-ahead short enough that both ``RecordTooLong``
    cases and the unterminated tail occur."""
    data = b"\n".join(lines) + (b"\n" if trailing else b"")
    for offset in range(0, len(data), split_size):
        end = min(offset + split_size, len(data))
        first = offset == 0
        base = 0 if first else offset - 1
        raw = data[base:end + lookahead]
        at_eof = base + len(raw) >= len(data)
        args = (raw, base, end, first, at_eof)
        assert _outcome(split_text_lines, *args) \
            == _outcome(_split_text_lines_per_line, *args), args


def test_both_record_too_long_cases_match_the_loop():
    window = b"x" * 40                  # no boundary in the whole window
    args = (window, 6, 20, False, False)
    assert _outcome(split_text_lines, *args) \
        == _outcome(_split_text_lines_per_line, *args)
    assert _outcome(split_text_lines, *args)[0] == "RecordTooLong"
    window = b"ab\n" + b"y" * 40        # the last owned record never ends
    args = (window, 6, 20, False, False)
    assert _outcome(split_text_lines, *args) \
        == _outcome(_split_text_lines_per_line, *args)
    assert "offset 9" in _outcome(split_text_lines, *args)[1]


# ------------------------------------------------------- oversized records
def test_record_longer_than_lookahead_raises():
    """A line that cannot be completed within the look-ahead window must
    fail loudly instead of silently truncating the job's input."""
    import pytest
    from repro.core.splitread import RecordTooLong

    long_line = b"x" * 500
    data = b"short\n" + long_line + b"\ntail\n"
    # Window of 100 bytes starting inside the long line, not at EOF.
    with pytest.raises(RecordTooLong):
        split_text_lines(data[6:106], base=6, split_end=50, first=False,
                         at_eof=False)


def test_unterminated_tail_is_valid_at_eof():
    data = b"alpha\nbeta"
    got = split_text_lines(data, base=0, split_end=len(data), first=True,
                           at_eof=True)
    assert got == [b"alpha", b"beta"]


def test_oversized_record_detected_end_to_end():
    """Through the engine: one giant line > LOOKAHEAD crashes the job."""
    import pytest
    from repro.apps import WordCountApp
    from repro.core import JobConfig, run_glasswing
    from repro.core.splitread import LOOKAHEAD, RecordTooLong
    from repro.hw.presets import das4_cluster

    giant = b"word " * (LOOKAHEAD // 4) + b"\n"  # one ~10 KiB-word line
    data = (b"normal line\n" * 400) + giant + (b"more lines\n" * 400)
    with pytest.raises(RecordTooLong):
        run_glasswing(WordCountApp(), {"f": data}, das4_cluster(nodes=1),
                      JobConfig(chunk_size=2048, storage="local"))
