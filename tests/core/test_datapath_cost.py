"""A deterministic cost gate for the data path: no wall clock.

The hash collector exists so that an emitted pair is touched once and
everything after it costs one entry per *unique key* (§III-F).  In this
model "touched once" means one C-level pass per batch — ``map``, ``zip``,
``set``, ``sorted`` — and no Python-level call per pair.  ``sys.setprofile``
sees every Python-level call (a generator resumption counts as one), so
the number of ``call`` events a launch raises must depend on its unique
keys and not on its pairs.
"""

import gc
import sys

from repro.apps.terasort import TeraSortApp
from repro.apps.wordcount import WordCountApp
from repro.core.collector import KeyInterner, collect_map_output
from repro.core.data import PairColumns
from repro.hw.presets import CPU_TYPE1

KEYS = [b"word%03d" % i for i in range(100)]


def python_calls(fn, *args, **kwargs):
    """Python-level ``call`` events raised while ``fn`` runs, and its
    result."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A collection may call back into Python (hypothesis registers a
    # ``gc.callbacks`` hook); it is not part of the data path.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
        if gc_was_enabled:
            gc.enable()
    return calls, result


def launch(n_pairs):
    return [(KEYS[i % len(KEYS)], 1) for i in range(n_pairs)]


def test_hash_collector_calls_scale_with_unique_keys_not_pairs():
    counts = []
    for n_pairs in (2_000, 20_000):
        calls, (out, _) = python_calls(
            collect_map_output, "hash", WordCountApp(), CPU_TYPE1,
            launch(n_pairs), use_combiner=True, chunk_index=0,
            interner=KeyInterner())
        assert len(out.pairs) == len(KEYS)
        assert sum(n for _, n in out.pairs) == n_pairs
        counts.append(calls)
    assert counts[0] == counts[1]


def text_records(n_words):
    """Records of ten words each, ``n_words`` words in all."""
    words = [KEYS[i % len(KEYS)] for i in range(n_words)]
    return [b" ".join(words[i:i + 10]) for i in range(0, n_words, 10)]


def test_wordcount_emit_and_combine_calls_do_not_scale_with_words():
    """The columnar emit end to end: map, then the hash table with its
    combiner — no tuple per word, so no call per word either."""
    app = WordCountApp()
    counts = []
    for n_words in (2_000, 20_000):
        records = text_records(n_words)

        def launch_and_collect():
            return collect_map_output(
                "hash", app, CPU_TYPE1, app.map_batch(records),
                use_combiner=True, chunk_index=0, interner=KeyInterner())

        calls, (out, _) = python_calls(launch_and_collect)
        assert len(out.pairs) == len(KEYS)
        assert sum(n for _, n in out.pairs) == n_words
        counts.append(calls)
    assert counts[0] == counts[1]


def test_size_of_raises_no_call_beyond_its_own_frame():
    wc = launch(5_000)
    ts = [(b"k" * 10, b"v" * 90)] * 5_000
    for schema, pairs in ((WordCountApp.inter_schema, wc),
                          (TeraSortApp.inter_schema, ts)):
        calls, size = python_calls(schema.size_of, pairs)
        assert calls == 1
        assert size == sum(schema.pair_bytes(k, v) for k, v in pairs)


def test_size_of_columns_raises_no_call_beyond_its_own_frame():
    wc = WordCountApp().map_batch(text_records(5_000))
    ts = PairColumns([b"k" * 10] * 5_000, [b"v" * 90] * 5_000)
    for schema, pairs in ((WordCountApp.inter_schema, wc),
                          (TeraSortApp.inter_schema, ts)):
        calls, size = python_calls(schema.size_of, pairs)
        assert calls == 1
        assert size == sum(schema.pair_bytes(k, v) for k, v in pairs)


def test_interner_sees_the_pairs_that_leave_the_collector():
    class CountingInterner(KeyInterner):
        def __init__(self):
            super().__init__()
            self.calls = 0

        def intern(self, key):
            self.calls += 1
            return super().intern(key)

    for use_combiner in (True, False):
        interner = CountingInterner()
        out, _ = collect_map_output(
            "hash", WordCountApp(), CPU_TYPE1, launch(2_000),
            use_combiner=use_combiner, chunk_index=0, interner=interner)
        assert interner.calls == len(out.pairs)
        assert len(out.pairs) == (len(KEYS) if use_combiner else 2_000)
