"""Deterministic cost gates for the WordCount input: no wall clock.

``datagen._vocabulary`` reads the generator's uint32 stream in bulk and
decodes it in numpy; a word-by-word draw makes one ``rng.integers`` call
per syllable count, consonant and vowel (about 160,000 for a 20,000-word
vocabulary).  Counting what the function asks of the ``Generator`` pins
the bulk path: the count is a small constant, the same at every size.

``datagen.wiki_text`` assembles its text as one byte array, so the calls
it raises do not grow with the text (a ``bytes.join`` per line would),
and its allocation peak stays a small multiple of the text it returns.
"""

import gc
import sys
import tracemalloc

import numpy as np

from repro.apps import datagen

KiB, MiB = 1024, 1024 * 1024


class CountingGenerator:
    """Delegates to a ``Generator`` and counts every attribute it is
    asked for (a method call is one)."""

    def __init__(self, rng):
        self._rng = rng
        self.asks = 0

    def __getattr__(self, name):
        self.asks += 1
        return getattr(self._rng, name)


def asks(size, seed=3):
    rng = CountingGenerator(np.random.default_rng(seed))
    codes = datagen._vocabulary(size, rng)
    assert np.array_equal(
        codes, datagen._vocabulary(size, np.random.default_rng(seed)))
    return rng.asks


def test_vocabulary_asks_the_generator_a_constant_number_of_times():
    small, large = asks(2_000), asks(20_000)
    assert small == large <= 8


def test_an_empty_vocabulary_asks_nothing():
    assert asks(0) == 0


def calls(nbytes, seed=102):
    """The Python-level and C ``call`` events ``wiki_text`` raises."""
    seen = {"call": 0, "c_call": 0}

    def profiler(frame, event, arg):
        if event in seen:
            seen[event] += 1

    # A collection may call back into Python (hypothesis registers a
    # ``gc.callbacks`` hook); it is not part of the generator.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        datagen.wiki_text(nbytes, seed=seed)
    finally:
        sys.setprofile(previous)
        if gc_was_enabled:
            gc.enable()
    return seen


def test_wiki_text_raises_as_many_calls_at_2_mib_as_at_16_kib():
    datagen.wiki_text(1)    # numpy's first-use imports are not the text's
    # Same seed, same vocabulary: only the text's length differs.
    assert calls(16 * KiB) == calls(2 * MiB)


#: ``tracemalloc`` peak bound of ``wiki_text(2 MiB, 102)``.  Joining one
#: ``bytes`` per line peaked at 11.8-12.4 MB (numpy 2, CPython 3.11);
#: the byte grid peaks near 8 MB.
PEAK_BOUND_BYTES = 10 * 10**6


def test_wiki_text_allocation_peak_stays_below_the_joined_lines():
    tracemalloc.start()
    try:
        datagen.wiki_text(2 * MiB, seed=102)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND_BYTES, peak
