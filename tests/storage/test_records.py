"""Tests for record formats, KV schemas and the compression model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.storage.records import (
    NO_COMPRESSION,
    CompressionModel,
    FixedRecordFormat,
    KVSchema,
    PairColumns,
    TextRecordFormat,
)


# ------------------------------------------------------------ text records
def test_text_split_basic():
    fmt = TextRecordFormat()
    assert fmt.split_records(b"a\nbb\nccc\n") == [b"a", b"bb", b"ccc"]


def test_text_split_no_trailing_newline():
    fmt = TextRecordFormat()
    assert fmt.split_records(b"a\nb") == [b"a", b"b"]


def test_text_split_empty():
    assert TextRecordFormat().split_records(b"") == []


def test_text_record_bytes_includes_newline():
    assert TextRecordFormat().record_bytes(b"abc") == 4


# ----------------------------------------------------------- fixed records
def test_fixed_split():
    fmt = FixedRecordFormat(4)
    assert fmt.split_records(b"aaaabbbbcccc").tolist() == \
        [b"aaaa", b"bbbb", b"cccc"]


def test_fixed_split_ragged_rejected():
    with pytest.raises(ValueError):
        FixedRecordFormat(4).split_records(b"aaaab")


def test_fixed_record_size_validation():
    with pytest.raises(ValueError):
        FixedRecordFormat(0)


# -------------------------------------------------------------- KV schema
WC_SCHEMA = KVSchema("wc", key_bytes=lambda k: len(k), value_bytes=lambda v: 4)


def test_schema_pair_bytes():
    assert WC_SCHEMA.pair_bytes("word", 1) == 4 + 4 + 8


def test_schema_size_of():
    pairs = [("a", 1), ("bb", 2)]
    assert WC_SCHEMA.size_of(pairs) == (1 + 4 + 8) + (2 + 4 + 8)


def _per_pair_size_of(kb, vb, pairs):
    """The per-pair formula ``size_of`` replaced, kept as the reference."""
    return sum(kb(k) + vb(v) + 8 for k, v in pairs)


# A width as the schema takes it, next to the same width as a function.
_WIDTHS = {
    "int/int": ((10, lambda k: 10), (90, lambda v: 90)),
    "callable/int": ((len, len), (4, lambda v: 4)),
    "int/callable": ((4, lambda k: 4), (len, len)),
    "callable/callable": ((len, len), (lambda v: 8 * len(v),
                                       lambda v: 8 * len(v))),
}
_pair_lists = st.lists(st.tuples(st.binary(max_size=12),
                                 st.binary(max_size=12)), max_size=40)


@pytest.mark.parametrize("widths", _WIDTHS)
@given(pairs=_pair_lists)
def test_size_of_equals_per_pair_formula(widths, pairs):
    (kb, kb_fn), (vb, vb_fn) = _WIDTHS[widths]
    schema = KVSchema("s", key_bytes=kb, value_bytes=vb)
    expected = _per_pair_size_of(kb_fn, vb_fn, pairs)
    assert schema.size_of(pairs) == expected              # sized
    assert schema.size_of(tuple(pairs)) == expected
    assert schema.size_of(iter(pairs)) == expected        # unsized
    assert schema.size_of(kv for kv in pairs) == expected
    for k, v in pairs:
        assert schema.pair_bytes(k, v) == kb_fn(k) + vb_fn(v) + 8


@pytest.mark.parametrize("widths", _WIDTHS)
def test_size_of_empty_batch(widths):
    (kb, _), (vb, _) = _WIDTHS[widths]
    schema = KVSchema("s", key_bytes=kb, value_bytes=vb)
    assert schema.size_of([]) == 0
    assert schema.size_of(iter(())) == 0


def test_size_of_consumes_an_iterator_exactly_once():
    pulled = []

    def stream():
        for pair in [(b"a", 1), (b"bb", 2), (b"ccc", 3)]:
            pulled.append(pair)
            yield pair

    for kb, vb in [(10, 90), (len, 4), (len, lambda v: 4)]:
        del pulled[:]
        KVSchema("s", key_bytes=kb, value_bytes=vb).size_of(stream())
        assert len(pulled) == 3


@pytest.mark.parametrize("width", [True, False, -1, 2.5, None, "4"])
def test_schema_rejects_bad_widths(width):
    with pytest.raises(ValueError, match="key_bytes"):
        KVSchema("s", key_bytes=width, value_bytes=4)
    with pytest.raises(ValueError, match="value_bytes"):
        KVSchema("s", key_bytes=len, value_bytes=width)


def test_app_schemas_use_the_cheap_forms():
    """All eighteen schemas in ``apps/`` are a constant or ``len`` — the
    forms ``size_of`` handles without a Python-level call per pair."""
    import numpy as np
    from repro.apps.kmeans import KMeansApp
    from repro.apps.matmul import MatMulApp
    from repro.apps.pagerank import PageRankContribApp, PageRankDegreeApp
    from repro.apps.pageview import PageViewApp
    from repro.apps.prefixsum import PrefixBlockSumApp, PrefixScanApp
    from repro.apps.terasort import TeraSortApp
    from repro.apps.wordcount import WordCountApp
    apps = [WordCountApp(), PageViewApp(), TeraSortApp([b"k" * 10]),
            KMeansApp(np.zeros((2, 3), dtype=np.float32)), MatMulApp(4),
            PageRankDegreeApp(), PageRankContribApp(np.ones(2), {0: 1}),
            PrefixBlockSumApp(8), PrefixScanApp({0: 0}, 8)]
    widths = [width for app in apps
              for schema in (app.inter_schema, app.output_schema)
              for width in (schema.key_bytes, schema.value_bytes)]
    assert len(widths) == 2 * 18
    assert all(width is len or type(width) is int for width in widths)


def test_callable_width_over_array_columns_is_refused():
    """``len`` of a numpy void element is 0, so a callable width over
    ``V10`` columns would size every pair as its framing alone; both
    sizers refuse it and name the schema instead."""
    columns = np.frombuffer(b"k" * 10 + b"v" * 10, dtype="V10")
    pairs = PairColumns(columns[:1], columns[1:])
    schema = KVSchema("x", key_bytes=len, value_bytes=len)
    with pytest.raises(TypeError, match="^x: a callable width"):
        schema.size_of(pairs)
    with pytest.raises(TypeError, match="^x: a callable width"):
        schema.bucket_sizes(pairs, np.array([0, 1]))
    fixed = KVSchema("x", key_bytes=10, value_bytes=10)
    assert fixed.size_of(pairs) == fixed.bucket_sizes(
        pairs, np.array([0, 0, 1]))[1] == 28


# ------------------------------------------------------------- compression
def test_compression_sizes_and_times():
    c = CompressionModel(ratio=0.5, compress_bw=100e6, decompress_bw=200e6)
    assert c.compressed_size(1000) == 500
    assert c.compress_seconds(100e6) == pytest.approx(1.0)
    assert c.decompress_seconds(100e6) == pytest.approx(0.5)


def test_no_compression_sentinel():
    assert NO_COMPRESSION.compressed_size(12345) == 12345
    assert NO_COMPRESSION.compress_seconds(10**9) < 1e-6


def test_compression_validation():
    with pytest.raises(ValueError):
        CompressionModel(ratio=0.0)
    with pytest.raises(ValueError):
        CompressionModel(ratio=1.5)
    with pytest.raises(ValueError):
        CompressionModel(compress_bw=0)


@given(st.integers(min_value=0, max_value=10**9))
def test_compression_never_grows(nbytes):
    c = CompressionModel(ratio=0.45)
    assert c.compressed_size(nbytes) <= nbytes
