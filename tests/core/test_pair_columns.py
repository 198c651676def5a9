"""``PairColumns`` against the tuple list it stands for.

WordCount's and TeraSort's maps emit their pairs as two columns, and every
stage after the collector carries them so; every consumer that reads the
columns directly must give exactly what it gives for the equal list of
``(key, value)`` tuples, which is kept here as the reference: the same
sizes, the same collector output and charged cost, the same combiner
totals (value types included), the same partition buckets, and — for the
batch hooks, TeraSort's fixed-width ones above all — the same partition
indices, bucket order, merge and grouping as the per-pair code.
"""

import itertools
import json
import random
from collections import Counter
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest

from repro.apps import (KMeansApp, MatMulApp, PageRankContribApp,
                        PageRankDegreeApp, PageViewApp, PrefixBlockSumApp,
                        PrefixScanApp)
from repro.apps.datagen import (kmeans_centers, kmeans_points, matmul_tasks,
                                pagerank_edges, prefix_values, teragen,
                                web_logs, wiki_text)
from repro.apps.terasort import KEY_LEN, RECORD_LEN, TeraSortApp
from repro.apps.wordcount import WordCountApp
from repro.core import JobConfig, run_glasswing
from repro.baselines.reference import run_reference
from repro.core.api import merge_runs, sum_by_key
from repro.core.collector import KeyInterner, collect_map_output
from repro.core.coordinator import ShuffleRegistry
from repro.core.data import MapBlock, PairColumns
from repro.hw.presets import CPU_TYPE1, das4_cluster
from repro.storage.records import KVSchema

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:    # pragma: no cover - hypothesis is an optional extra
    HAVE_HYPOTHESIS = False

FALLBACK_SEEDS = tuple(range(12))
VOCABULARY = [b"the", b"a", b"fox", b"of", b"Fox", b"jumps", b"z" * 11]


def _keys(rng, n):
    """``n`` keys: a few hot ones, or (sometimes) mostly distinct."""
    if rng.random() < 0.3:
        return [b"k%d" % rng.randrange(4 * n + 1) for _ in range(n)]
    return [rng.choice(VOCABULARY) for _ in range(n)]


def _batch(rng, values):
    """The same batch twice: as columns and as the tuple list."""
    keys = _keys(rng, len(values))
    return PairColumns(keys, values), list(zip(keys, values))


# ------------------------------------------------------------------ the type
def test_unequal_columns_raise():
    with pytest.raises(ValueError, match="equal-length"):
        PairColumns([b"a", b"b"], [1])
    with pytest.raises(ValueError, match="equal-length"):
        PairColumns([], [1])


def test_len_and_iteration_are_the_pairs():
    batch = PairColumns([b"a", b"b", b"a"], [1, 2, 3])
    assert len(batch) == 3
    assert list(batch) == [(b"a", 1), (b"b", 2), (b"a", 3)]
    assert list(batch) == list(batch)         # iterable again, not an iterator
    assert len(PairColumns([], [])) == 0 and list(PairColumns([], [])) == []


# ------------------------------------------------------------------- size_of
_WIDTHS = {
    "int/int": (10, 90),
    "callable/int": (len, 4),
    "int/callable": (4, len),
    "callable/callable": (len, lambda v: 8 * len(v)),
}


def check_size_of(seed):
    rng = random.Random(seed)
    n = rng.choice((0, 1, rng.randrange(2, 60)))
    columns, pairs = _batch(
        rng, [bytes(rng.randrange(5)) for _ in range(n)])
    for kb, vb in _WIDTHS.values():
        schema = KVSchema("s", key_bytes=kb, value_bytes=vb)
        assert schema.size_of(columns) == schema.size_of(pairs)
        assert schema.size_of(columns) == sum(
            schema.pair_bytes(k, v) for k, v in pairs)


@pytest.mark.parametrize("widths", _WIDTHS)
def test_size_of_empty_columns(widths):
    kb, vb = _WIDTHS[widths]
    assert KVSchema("s", key_bytes=kb, value_bytes=vb).size_of(
        PairColumns([], [])) == 0


# --------------------------------------------------------------- sum_by_key
#: the values column of a batch, by kind
_VALUES = {
    "ones": lambda rng, n: [1] * n,
    "twos": lambda rng, n: [2] * n,
    "float-ones": lambda rng, n: [1.0] * n,
    "true": lambda rng, n: [True] * n,
    "mixed": lambda rng, n: [rng.choice((1, 1, 1, 2, 1.0, True, 0, -3))
                             for _ in range(n)],
    "empty": lambda rng, n: [],
}


def _typed(pairs):
    """A combiner output with its value types made visible: ``1 == 1.0 ==
    True``, so list equality alone would not tell them apart."""
    return [(k, v, type(v)) for k, v in pairs]


def check_sum_by_key(seed, kind):
    rng = random.Random(seed)
    columns, pairs = _batch(rng, _VALUES[kind](rng, rng.randrange(1, 80)))
    expected = sum_by_key(pairs)
    assert _typed(sum_by_key(columns)) == _typed(expected)
    assert _typed(WordCountApp().run_combine(columns)) == _typed(expected)


def test_sum_by_key_on_hand_built_columns():
    assert sum_by_key(PairColumns([b"b", b"a", b"b"], [1, 1, 1])) == \
        [(b"b", 2), (b"a", 1)]
    floats = sum_by_key(PairColumns([b"a", b"a"], [1.0, 1.0]))
    assert floats == [(b"a", 2.0)] and type(floats[0][1]) is float
    mixed = sum_by_key(PairColumns([b"a", b"a"], [1, 1.0]))
    assert type(mixed[0][1]) is float
    assert sum_by_key(PairColumns([b"a", b"a"], [True, True])) == [(b"a", 2)]
    assert sum_by_key(PairColumns([], [])) == []


# --------------------------------------------------------------- collectors
_COLLECTIONS = [("hash", True), ("hash", False), ("buffer", False)]


def check_collect(seed, collector, use_combiner):
    rng = random.Random(seed)
    app = WordCountApp()
    values = _VALUES[rng.choice(("ones", "ones", "mixed"))](
        rng, rng.randrange(0, 120))
    columns, pairs = _batch(rng, values)
    out_c, cost_c = collect_map_output(collector, app, CPU_TYPE1, columns,
                                       use_combiner, 3, interner=KeyInterner())
    out_t, cost_t = collect_map_output(collector, app, CPU_TYPE1, pairs,
                                       use_combiner, 3, interner=KeyInterner())
    assert cost_c == cost_t
    assert _typed(out_c.pairs) == _typed(out_t.pairs)
    assert (out_c.chunk_index, out_c.raw_bytes, out_c.decode_items,
            out_c.seq, out_c.last) == (out_t.chunk_index, out_t.raw_bytes,
                                       out_t.decode_items, out_t.seq,
                                       out_t.last)


def test_buffer_collector_passes_columns_through():
    columns = PairColumns([b"a", b"b"], [1, 1])
    out, _ = collect_map_output("buffer", WordCountApp(), CPU_TYPE1, columns,
                                use_combiner=False, chunk_index=0)
    assert out.pairs is columns


def test_unhashable_column_key_is_named():
    columns = PairColumns([b"a", [1]], [1, 1])
    with pytest.raises(TypeError, match="hashable keys, got a list"):
        collect_map_output("hash", WordCountApp(), CPU_TYPE1, columns,
                           use_combiner=True, chunk_index=0)


# ---------------------------------------------------------------- partition
class _TupleWordCount(WordCountApp):
    """WordCount with the tuple-list emit it had before its columns."""

    def map_batch(self, records):
        return list(super().map_batch(records))


def _durable_buckets(app, text, batch_size):
    """Every split's partition buckets, as the map phase hands them to the
    shuffle registry, and the job's report."""
    buckets = {}
    original = ShuffleRegistry.mark_durable

    def capture(registry, node, block):
        buckets[(node, block.split)] = {
            pid: (list(block.bucket(pid)), block.raw[pid])
            for pid in block.pids}
        original(registry, node, block)

    config = JobConfig(chunk_size=4096, storage="local", collector="buffer",
                       use_combiner=False, partitions_per_node=3,
                       batch_size=batch_size)
    with mock.patch.object(ShuffleRegistry, "mark_durable", capture):
        result = run_glasswing(app, {"wiki": text}, das4_cluster(nodes=2),
                               config)
    return buckets, json.dumps(result.to_report(), sort_keys=True), \
        sorted(result.output_pairs())


def check_partition(seed):
    rng = random.Random(seed)
    text = wiki_text(rng.randrange(2_000, 12_000), seed=seed,
                     vocab_size=rng.choice((40, 400)))
    batch_size = rng.choice((None, 7, 64))
    columns = _durable_buckets(WordCountApp(), text, batch_size)
    tuples = _durable_buckets(_TupleWordCount(), text, batch_size)
    assert columns[0] and columns == tuples


# ---------------------------------------------- the batch hooks, exactly
#: 10-byte keys the per-pair code and a fixed-width ``S10`` view could
#: disagree on: trailing NULs (``S10.tolist`` strips them), ``\xff`` and
#: other high bytes, and keys sharing their first eight bytes
_EDGE_KEYS = [b"\x00" * KEY_LEN, b"ab" + b"\x00" * 8, b"abcdefgh\x00\x00",
              b"abcdefgh\x00\x01", b"abcdefgh\x01\x00", b"abcdefgh\xff\x00",
              b"\x7f" + b"\xff" * 9, b"\x80" + b"\x00" * 9, b"\xff" * KEY_LEN,
              b"\xff" * 9 + b"\x00"]


def _ts_keys(rng, n, sample):
    """``n`` TeraSort keys: edge keys, sampled keys (equal to a split
    point), keys ending in NUL and random ones, duplicates likely."""
    draw = (lambda: rng.choice(_EDGE_KEYS), lambda: rng.choice(sample),
            lambda: rng.randbytes(KEY_LEN - 1) + b"\x00",
            lambda: rng.randbytes(KEY_LEN))
    return [rng.choice(draw)() for _ in range(n)]


def _hook_case(seed):
    """An app, a keys column with distinct int values (so stability
    shows), and a partition count — TeraSort or generic WordCount."""
    rng = random.Random(seed)
    n = rng.choice((0, 1, 2, rng.randrange(3, 300)))
    if rng.random() < 0.75:
        sample = _ts_keys(rng, rng.choice((1, 1, 5, 40)),
                          [rng.randbytes(KEY_LEN)])
        app, keys = TeraSortApp(sample), _ts_keys(rng, n, sample)
    else:
        app, keys = WordCountApp(), _keys(rng, n)
    return app, PairColumns(keys, list(range(n))), rng.choice((1, 2, 3, 7, 16))


def reference_buckets(app, pairs, n_partitions):
    """The per-pair partitioner: one ``partition`` call and one append per
    pair, then a stable sort of each bucket, buckets in index order."""
    buckets = {}
    for pair in pairs:
        buckets.setdefault(app.partition(pair[0], n_partitions),
                           []).append(pair)
    return [(pid, sorted(buckets[pid], key=itemgetter(0)))
            for pid in sorted(buckets)]


def check_partition_hooks(seed):
    app, columns, n_partitions = _hook_case(seed)
    keys = columns.keys
    pids = app.partition_batch(keys, n_partitions)
    assert list(pids) == [app.partition(k, n_partitions) for k in keys]
    ordered = columns.take(app.sort_order(keys, pids))
    expected = reference_buckets(app, columns, n_partitions)
    assert list(ordered) == [pair for _, run in expected for pair in run]
    assert sorted(Counter(pids).items()) == \
        [(pid, len(run)) for pid, run in expected]
    # The original key objects, gathered by index: never a copy that came
    # back out of a fixed-width array.
    assert all(a is keys[v] for a, v in zip(ordered.keys, ordered.values))


def check_merge_and_groups(seed):
    app, columns, _ = _hook_case(seed)
    rng = random.Random(seed)
    cuts = sorted(rng.randrange(len(columns) + 1)
                  for _ in range(rng.randrange(4)))
    runs = []
    for a, b in zip([0] + cuts, cuts + [len(columns)]):
        part = sorted(list(columns)[a:b], key=itemgetter(0))
        if part:
            runs.append(PairColumns([k for k, _ in part],
                                    [v for _, v in part]))
    if not runs:
        return
    merged = merge_runs(app, runs)
    expected = sorted(itertools.chain.from_iterable(runs), key=itemgetter(0))
    assert list(merged) == expected
    assert list(app.group_sizes(merged.keys)) == \
        [len(list(g)) for _, g in itertools.groupby(merged.keys)]


def test_terasort_hooks_on_an_empty_batch_and_one_partition():
    app = TeraSortApp([b"m" * KEY_LEN])
    assert list(app.partition_batch([], 4)) == []
    assert list(app.sort_order([])) == [] == list(app.sort_order([], []))
    assert list(app.group_sizes([])) == []
    keys = [b"z" * KEY_LEN, b"a" * KEY_LEN, b"m" * KEY_LEN, b"a" * KEY_LEN]
    assert list(app.partition_batch(keys, 1)) == [0, 0, 0, 0]
    # A key equal to a splitter goes above it.
    assert list(app.partition_batch(keys, 2)) == [1, 0, 1, 0]
    assert list(app.sort_order(keys)) == [1, 3, 2, 0]     # ties stay stable
    assert list(app.group_sizes(sorted(keys))) == [2, 1, 1]


@pytest.mark.parametrize("sample", [[b"short"], [b"k" * (KEY_LEN + 1)],
                                    [b"k" * KEY_LEN, b"k" * (KEY_LEN - 1)],
                                    ["k" * KEY_LEN]],
                         ids=["short", "long", "one-short", "str"])
def test_terasort_rejects_sample_keys_of_another_width(sample):
    with pytest.raises(ValueError, match=f"{KEY_LEN}-byte"):
        TeraSortApp(sample)


def test_terasort_hooks_reject_keys_of_another_width():
    app = TeraSortApp([b"k" * KEY_LEN])
    for hook in (lambda keys: app.partition_batch(keys, 2), app.sort_order,
                 app.group_sizes):
        with pytest.raises(ValueError, match=f"{KEY_LEN} bytes"):
            hook([b"k" * KEY_LEN, b"short"])


# ------------------------------------------------------ array columns
#: a value column's last byte: NUL (which an ``S`` view would strip), or not
_VALUE_TAILS = (b"\x00", b"\x00\x00", b"\xff", b"v")


def _ts_records(rng, n):
    """``n`` TeraSort records as the old per-record ``bytes`` list: edge
    keys (trailing NULs, ``\xff``, shared 8-byte prefixes) and values
    ending in NULs."""
    keys = _ts_keys(rng, n, [rng.randbytes(KEY_LEN)])
    return [k + rng.randbytes(RECORD_LEN - KEY_LEN - 2)
            + rng.choice(_VALUE_TAILS).rjust(2, b"\x01") for k in keys]


def _array_case(seed):
    """One batch twice: TeraSort's map on the split array (``V10``/``V90``
    views) and the tuple columns of the old per-record ``bytes`` list."""
    rng = random.Random(seed)
    records = _ts_records(rng, rng.choice((0, 1, 2, rng.randrange(3, 200))))
    app = TeraSortApp(_ts_keys(rng, rng.choice((1, 5)), _EDGE_KEYS))
    array = app.map_batch(
        app.record_format.split_records(b"".join(records)))
    tuples = PairColumns(tuple(r[:KEY_LEN] for r in records),
                         tuple(r[KEY_LEN:] for r in records))
    return rng, app, array, tuples


def _objects_are_bytes(pairs):
    return all(type(k) is bytes and type(v) is bytes for k, v in pairs)


def check_array_columns(seed):
    rng, app, array, tuples = _array_case(seed)
    n = len(tuples)
    assert isinstance(array.keys, np.ndarray) and len(array) == n
    assert list(array) == list(tuples) and _objects_are_bytes(array)
    for index in range(-n, n) if n < 4 else (0, 1, -1, rng.randrange(n)):
        assert array[index] == tuples[index]
    a, b = sorted(rng.randrange(n + 1) for _ in range(2))
    assert list(array[a:b]) == list(tuples[a:b])
    order = [rng.randrange(n) for _ in range(rng.randrange(2 * n + 1))]
    for gather in (order, np.asarray(order, dtype=np.intp)):
        taken = array.take(gather)
        assert isinstance(taken.keys, np.ndarray)
        assert list(taken) == list(tuples.take(order))
    # Concat of separate arrays, of abutting and of overlapping slices.
    cuts = sorted(rng.randrange(n + 1) for _ in range(rng.randrange(4)))
    bounds = list(zip([0] + cuts, cuts + [n]))
    for parts in ([app.map_batch(array_records(tuples[x:y]))
                   for x, y in bounds],
                  [array[x:y] for x, y in bounds],
                  [array[x:y] for x, y in bounds][::-1],
                  [array, array[a:b]]):
        joined = PairColumns.concat(parts)
        assert list(joined) == [p for part in parts for p in part]
    # Slices of one gathered array, abutting, with a gap or out of order.
    owned, cut = array.take(np.arange(n)), rng.randint(a, b)
    for parts in ([owned[a:cut], owned[cut:b]], [owned[a:cut], owned[b:]],
                  [owned[cut:b], owned[a:cut]], [owned[a:b], owned[b:b]]):
        joined = PairColumns.concat(parts)
        assert list(joined) == [p for part in parts for p in part]
    for kb, vb in ((10, 90), (0, 0), (3, 7)):    # array columns: int widths
        schema = KVSchema("s", key_bytes=kb, value_bytes=vb)
        assert schema.size_of(array) == schema.size_of(tuples)
    keys = list(tuples.keys)
    for n_partitions in (1, 3, 16):
        assert list(app.partition_batch(array.keys, n_partitions)) == \
            [app.partition(k, n_partitions) for k in keys]
    assert list(app.sort_order(array.keys)) == \
        list(app.sort_order(tuples.keys))
    ordered = array.take(app.sort_order(array.keys))
    assert list(ordered) == sorted(tuples, key=itemgetter(0))
    assert list(app.group_sizes(ordered.keys)) == \
        [len(list(g)) for _, g in itertools.groupby(ordered.keys.tolist())]


def array_records(pairs):
    """``pairs`` (TeraSort keys and values) as a split's record array."""
    return TeraSortApp.record_format.split_records(
        b"".join(k + v for k, v in pairs))


def test_array_columns_on_an_empty_and_a_one_record_batch():
    for records in ([], [b"\xff" * 9 + b"\x00" + b"v" * 89 + b"\x00"]):
        app = TeraSortApp([b"m" * KEY_LEN])
        array = app.map_batch(
            app.record_format.split_records(b"".join(records)))
        assert list(array) == [(r[:KEY_LEN], r[KEY_LEN:]) for r in records]
        assert list(array.take([])) == [] == list(array[len(records):])
        assert list(PairColumns.concat([array, array[:0]])) == list(array)
        assert app.inter_schema.size_of(array) == 108 * len(records)
        assert list(app.group_sizes(array.keys)) == [1] * len(records)


def test_a_void_key_keeps_its_trailing_nuls():
    key = b"abcdefgh\x00\x00"
    array = TeraSortApp([key]).map_batch(array_records([(key, b"\x00" * 90)]))
    assert array.keys.dtype == np.dtype("V10")
    assert array.values.dtype == np.dtype("V90")
    assert list(array) == [(key, b"\x00" * 90)]


def test_job_output_is_bytes_equal_to_the_reference():
    data = teragen(3_000, seed=21)
    app = TeraSortApp.from_input(data, sample_every=31)
    result = run_glasswing(app, {"tera": data}, das4_cluster(nodes=4),
                           JobConfig(chunk_size=16 * 1024))
    pairs = list(result.output_pairs())
    assert _objects_are_bytes(pairs)
    assert [k for k, _ in pairs] == sorted(k for k, _ in pairs)
    assert _objects_are_bytes(result.sorted_output())
    assert sorted(pairs) == result.sorted_output() == \
        sorted(run_reference(app, {"tera": data}))


# Every fixed-record app maps the split array exactly as its map did on
# the list of per-record ``bytes`` that ``split_records`` returned before:
# those maps, kept below as they were, are the references.
def _old_rows(records, dtype):
    """The old decode: the records joined, then viewed as ``(n, 2)``."""
    return np.frombuffer(b"".join(records), dtype=dtype).reshape(-1, 2)


def _old_terasort_map(app, records):
    return [(r[:KEY_LEN], r[KEY_LEN:]) for r in records]


def _old_kmeans_map(app, records):
    """``KMeansApp.map_batch`` as it was (the test's points fit one block
    of its blocked distance loop)."""
    if not records:
        return []
    points = np.frombuffer(b"".join(records), dtype=np.float32)
    points = points.reshape(-1, app.dims)
    c = app.centers
    d = points @ c.T
    d *= -2.0
    d += (c * c).sum(axis=1)[None, :]
    assign = np.argmin(d, axis=1)
    coords = points.astype(np.float64).tolist()
    return [(int(cid), (tuple(vec), 1))
            for cid, vec in zip(assign.tolist(), coords)]


def _old_blocksum_map(app, records):
    rows = _old_rows(records, "<i8")
    blocks = rows[:, 0] // app.block_size
    return list(zip(blocks.tolist(), rows[:, 1].tolist()))


def _old_scan_map(app, records):
    rows = _old_rows(records, "<i8")
    blocks = rows[:, 0] // app.block_size
    return [(int(b), (int(i), int(v)))
            for b, (i, v) in zip(blocks.tolist(), rows.tolist())]


def _old_degree_map(app, records):
    src = _old_rows(records, "<i4")[:, 0]
    return [(int(s), 1) for s in src.tolist()]


def _old_contrib_map(app, records):
    edges = _old_rows(records, "<i4")
    contribs = app.share[edges[:, 0]]
    return list(zip(edges[:, 1].tolist(), contribs.tolist()))


def _old_matmul_map(app, records):
    """``MatMulApp.map_batch`` as it was: one decode per ``bytes``."""
    t, out = app.tile, []
    for rec in records:
        i, j, _k = np.frombuffer(rec, dtype="<i4", count=3)
        tiles = np.frombuffer(rec, dtype=np.float32, offset=12)
        a, b = tiles[:t * t].reshape(t, t), tiles[t * t:].reshape(t, t)
        out.append(((int(i), int(j)), (a @ b).tobytes()))
    return out


def _fixed_record_apps():
    edges = pagerank_edges(40, 300, seed=3)
    degrees = dict(run_reference(PageRankDegreeApp(), {"e": edges}))
    mm_app = MatMulApp(4)
    ts = teragen(500, seed=4)
    return [
        (TeraSortApp.from_input(ts, sample_every=7), ts, _old_terasort_map),
        (KMeansApp(kmeans_centers(5, 3, seed=5)), kmeans_points(700, 3),
         _old_kmeans_map),
        (PrefixBlockSumApp(64), prefix_values(900, seed=6),
         _old_blocksum_map),
        (PrefixScanApp({0: 5, 1: -3}, 64), prefix_values(900, seed=7),
         _old_scan_map),
        (PageRankDegreeApp(), edges, _old_degree_map),
        (PageRankContribApp(np.full(40, 1 / 40), degrees), edges,
         _old_contrib_map),
        (mm_app, matmul_tasks(16, 4, seed=8)[0], _old_matmul_map),
    ]


@pytest.mark.parametrize("case", range(7), ids=[
    "terasort", "kmeans", "prefix-blocksum", "prefix-scan",
    "pagerank-degree", "pagerank-contrib", "matmul"])
def test_fixed_record_map_on_the_array_equals_the_bytes_list(case):
    app, blob, old_map = _fixed_record_apps()[case]
    size = app.record_format.record_size
    old_records = [blob[i:i + size] for i in range(0, len(blob), size)]
    array = app.record_format.split_records(blob)
    assert isinstance(array, np.ndarray) and len(array) == len(old_records)
    expected = old_map(app, old_records)
    assert expected and list(app.map_batch(array)) == expected
    # A batch is a slice of the split array, as the map reader cuts it.
    assert list(app.map_batch(array[3:11])) == \
        old_map(app, old_records[3:11])
    assert list(app.map_batch(array[:0])) == [] == old_map(app, [])


# ------------------------------------------------------------ map blocks
def _every_app():
    """Each app of ``repro.apps`` with a small input of its own."""
    return [(WordCountApp(), wiki_text(9_000, seed=3)),
            (PageViewApp(), web_logs(9_000, seed=3))] + \
        [(app, blob) for app, blob, _ in _fixed_record_apps()]


def _blocks(app, blob, batch_size):
    """Every block a job's map phase hands the shuffle registry."""
    blocks = []
    original = ShuffleRegistry.mark_durable

    def capture(registry, node, block):
        blocks.append(block)
        original(registry, node, block)

    config = JobConfig(chunk_size=1024, storage="local",
                       partitions_per_node=3, batch_size=batch_size)
    with mock.patch.object(ShuffleRegistry, "mark_durable", capture):
        run_glasswing(app, {"in": blob}, das4_cluster(nodes=2), config)
    return blocks


def check_block_against_buckets(block, schema, n_partitions):
    """A block's one sizing pass gives each bucket exactly what ``size_of``
    of the bucket's own slice gives (0 for an empty one), and its ``pids``
    are the non-empty buckets."""
    buckets = [block.bucket(pid) for pid in range(n_partitions)]
    assert block.raw == [schema.size_of(b) for b in buckets]
    assert all(type(raw) is int for raw in block.raw)
    assert block.pids == [pid for pid, b in enumerate(buckets) if len(b)]
    assert [p for b in buckets for p in b] == list(block.pairs)


@pytest.mark.parametrize("batch_size", [None, 7])
@pytest.mark.parametrize("case", range(9), ids=[
    "wordcount", "pageview", "terasort", "kmeans", "prefix-blocksum",
    "prefix-scan", "pagerank-degree", "pagerank-contrib", "matmul"])
def test_block_sizes_equal_each_bucket_size_of(case, batch_size):
    app, blob = _every_app()[case]
    blocks = _blocks(app, blob, batch_size)
    assert len(blocks) > 1
    for block in blocks:
        check_block_against_buckets(block, app.inter_schema, 6)


def test_block_of_one_occupied_partition_and_of_no_pairs():
    """Empty buckets size to 0 around the one occupied partition, for
    tuple and for array columns; a split with no pairs is all empty."""
    ts = TeraSortApp([b"m" * KEY_LEN])
    for schema, pairs in (
            (WordCountApp.inter_schema,
             PairColumns((b"a", b"bb", b"ccc"), (1, 1, 1))),
            (ts.inter_schema,
             ts.map_batch(ts.record_format.split_records(teragen(3))))):
        block = MapBlock(0, pairs, [2] * 3, 4, schema)
        check_block_against_buckets(block, schema, 4)
        assert block.pids == [2] and block.raw[2] == schema.size_of(pairs)
        assert block.raw[:2] + block.raw[3:] == [0, 0, 0]
        empty = MapBlock(1, pairs[:0], [], 3, schema)
        check_block_against_buckets(empty, schema, 3)
        assert empty.raw == [0, 0, 0] and empty.pids == []


# ----------------------------------------------------- hypothesis / fallback
if HAVE_HYPOTHESIS:
    _seeds = st.integers(min_value=0, max_value=2**20)

    @settings(max_examples=60, deadline=None)
    @given(seed=_seeds)
    def test_size_of_columns_equals_tuples(seed):
        check_size_of(seed)

    @pytest.mark.parametrize("kind", _VALUES)
    @settings(max_examples=30, deadline=None)
    @given(seed=_seeds)
    def test_sum_by_key_columns_equals_tuples(seed, kind):
        check_sum_by_key(seed, kind)

    @pytest.mark.parametrize("collector,use_combiner", _COLLECTIONS)
    @settings(max_examples=30, deadline=None)
    @given(seed=_seeds)
    def test_collect_columns_equals_tuples(seed, collector, use_combiner):
        check_collect(seed, collector, use_combiner)

    @settings(max_examples=8, deadline=None)
    @given(seed=_seeds)
    def test_partition_buckets_columns_equal_tuples(seed):
        check_partition(seed)

    @settings(max_examples=200, deadline=None)
    @given(seed=_seeds)
    def test_partition_hooks_equal_per_pair_buckets(seed):
        check_partition_hooks(seed)

    @settings(max_examples=200, deadline=None)
    @given(seed=_seeds)
    def test_merge_and_groups_equal_sorted_and_groupby(seed):
        check_merge_and_groups(seed)

    @settings(max_examples=150, deadline=None)
    @given(seed=_seeds)
    def test_array_columns_equal_tuple_columns(seed):
        check_array_columns(seed)

else:    # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
    def test_size_of_columns_equals_tuples(seed):
        check_size_of(seed)

    @pytest.mark.parametrize("kind", _VALUES)
    @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
    def test_sum_by_key_columns_equals_tuples(seed, kind):
        check_sum_by_key(seed, kind)

    @pytest.mark.parametrize("collector,use_combiner", _COLLECTIONS)
    @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
    def test_collect_columns_equals_tuples(seed, collector, use_combiner):
        check_collect(seed, collector, use_combiner)

    @pytest.mark.parametrize("seed", FALLBACK_SEEDS[:4])
    def test_partition_buckets_columns_equal_tuples(seed):
        check_partition(seed)

    @pytest.mark.parametrize("seed", range(200))
    def test_partition_hooks_equal_per_pair_buckets(seed):
        check_partition_hooks(seed)

    @pytest.mark.parametrize("seed", range(200))
    def test_merge_and_groups_equal_sorted_and_groupby(seed):
        check_merge_and_groups(seed)

    @pytest.mark.parametrize("seed", range(150))
    def test_array_columns_equal_tuple_columns(seed):
        check_array_columns(seed)
