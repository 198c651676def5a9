"""``PairColumns`` against the tuple list it stands for.

WordCount's map emits its pairs as two columns; every consumer that reads
the columns directly must give exactly what it gives for the equal list
of ``(key, value)`` tuples, which is kept here as the reference: the same
sizes, the same collector output and charged cost, the same combiner
totals (value types included) and the same partition buckets.
"""

import json
import random
from unittest import mock

import pytest

from repro.apps.datagen import wiki_text
from repro.apps.wordcount import WordCountApp
from repro.core import JobConfig, run_glasswing
from repro.core.api import sum_by_key
from repro.core.collector import KeyInterner, collect_map_output
from repro.core.coordinator import ShuffleRegistry
from repro.core.data import PairColumns
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

    def capture(registry, node, split, runs):
        buckets[(node, split)] = {pid: (run.pairs, run.raw_bytes)
                                  for pid, run in runs.items()}
        original(registry, node, split, runs)

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
