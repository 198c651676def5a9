"""A deterministic cost gate for the vocabulary draw: no wall clock.

``datagen._vocabulary`` reads the generator's uint32 stream in bulk and
decodes it in numpy; a word-by-word draw makes one ``rng.integers`` call
per syllable count, consonant and vowel (about 160,000 for a 20,000-word
vocabulary).  Counting what the function asks of the ``Generator`` pins
the bulk path: the count is a small constant, the same at every size.
"""

import numpy as np

from repro.apps import datagen


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
    words = datagen._vocabulary(size, rng)
    assert words == datagen._vocabulary(size, np.random.default_rng(seed))
    return rng.asks


def test_vocabulary_asks_the_generator_a_constant_number_of_times():
    small, large = asks(2_000), asks(20_000)
    assert small == large <= 8


def test_an_empty_vocabulary_asks_nothing():
    assert asks(0) == 0
