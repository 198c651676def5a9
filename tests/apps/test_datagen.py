"""Tests for the synthetic dataset generators."""

import hashlib

import numpy as np
import pytest

from repro.apps import datagen
from repro.service.trace import synthetic_trace

KiB, MiB = 1024, 1024 * 1024

#: sha256 of ``wiki_text(nbytes, seed)``, taken from the word-by-word
#: vocabulary draw: the shuffle-storm input, a 16 KiB and a 64 KiB
#: service-trace row, the small-scale wc-datapath input, and one more
WIKI_TEXT_SHA256 = {
    (4 * MiB, 42):
        "83150149f69f43e3035acfe91dd954878db8ac71d9f059632ae4f3c45c7a8025",
    (16 * KiB, 700_021):
        "5efa4a4b23a739de4329c29d084deca2bc571d5c9418e4d3853dc2facdfa5bdb",
    (64 * KiB, 700_046):
        "5061c15765a64d8eaa9db22ea68dd53ad9abce2f0960e63fe3b74dcfb54072d5",
    (2 * MiB, 102):
        "82cd33f3f87472eecc85c04279308b638b89efa810f2f2bf00a66a4b57c96184",
    (10_000, 3):
        "0cd681e209a8304b6bb26214afabc2276a84f822bd3bd64614202f5bbd993872",
}

#: sha256 over every input of ``synthetic_trace(200, seed=7)`` (the
#: service-replay trace), row by row, each input's name then its bytes
TRACE_SHA256 = \
    "26ab68ecbbd142b69c90b67bb3dd71f90d049c994491d0f0e3bdfdd57784e783"


def scalar_vocabulary(size, rng):
    """The word-by-word draw ``datagen._vocabulary`` must reproduce."""
    words = set()
    while len(words) < size:
        syllables = rng.integers(2, 5)
        word = "".join(
            datagen._CONSONANTS[rng.integers(len(datagen._CONSONANTS))] +
            datagen._VOWELS[rng.integers(len(datagen._VOWELS))]
            for _ in range(syllables))
        words.add(word.encode())
    return sorted(words)


def reference_decode(block):
    """:func:`datagen._decode_words` in plain Python: numpy's Lemire rule
    one draw at a time over the uint32s of ``block``."""
    values = block.tolist()
    used = 0

    def below(r):
        nonlocal used
        threshold = (2**32 - r) % r
        while True:
            m = values[used] * r            # IndexError: block exhausted
            used += 1
            if m % 2**32 >= threshold:
                return m >> 32

    words, ends = [], []
    try:
        while True:
            syllables = below(3) + 2
            words.append("".join(
                datagen._CONSONANTS[below(16)] + datagen._VOWELS[below(5)]
                for _ in range(syllables)).encode())
            ends.append(used)
    except IndexError:
        pass
    return words, ends


def test_wiki_text_size_and_shape():
    data = datagen.wiki_text(50_000, seed=1)
    assert 0.8 * 50_000 <= len(data) <= 1.3 * 50_000
    assert data.endswith(b"\n")
    words = data.split()
    assert len(words) > 1000
    # Zipf: the most common word should dominate.
    from collections import Counter
    counts = Counter(words)
    top = counts.most_common(1)[0][1]
    assert top > len(words) * 0.05


def test_wiki_text_deterministic():
    assert datagen.wiki_text(10_000, seed=3) == datagen.wiki_text(10_000, seed=3)
    assert datagen.wiki_text(10_000, seed=3) != datagen.wiki_text(10_000, seed=4)


@pytest.mark.parametrize("nbytes,seed", sorted(WIKI_TEXT_SHA256))
def test_wiki_text_bytes_are_pinned(nbytes, seed):
    data = datagen.wiki_text(nbytes, seed=seed)
    assert hashlib.sha256(data).hexdigest() == WIKI_TEXT_SHA256[nbytes, seed]


def test_service_trace_inputs_are_pinned():
    digest = hashlib.sha256()
    for row in synthetic_trace(200, seed=7):
        _app, inputs, _overrides = row.materialize()
        for name in sorted(inputs):
            digest.update(name.encode())
            digest.update(inputs[name])
    assert digest.hexdigest() == TRACE_SHA256


@pytest.mark.parametrize("seed", range(20))
def test_vocabulary_matches_the_word_by_word_draw(seed):
    for size in (0, 1, 5, 100, 20_000):
        ref, new = np.random.default_rng(seed), np.random.default_rng(seed)
        if seed % 2:
            # Start with half a 64-bit word buffered in the bit generator.
            for rng in (ref, new):
                rng.integers(0, 2**32, dtype=np.uint32)
        before = new.bit_generator.state
        assert datagen._vocabulary(size, new) == scalar_vocabulary(size, ref)
        assert new.bit_generator.state == ref.bit_generator.state
        if size == 0:
            assert new.bit_generator.state == before


#: a block with no zero in it, and where its words end
BLOCK = np.random.default_rng(5).integers(1, 2**32, size=400, dtype=np.uint32)
BLOCK_WORDS, BLOCK_ENDS = reference_decode(BLOCK)


def zero_at(*positions):
    """:data:`BLOCK` decoded with a ``0`` written at ``positions``,
    checked against the reference decoder."""
    block = BLOCK.copy()
    block[list(positions)] = 0
    words, ends = datagen._decode_words(block)
    assert (words, ends) == reference_decode(block)
    return words, ends


def assert_skipped(at):
    """The zero at ``at`` was rejected: the words are those of the block
    without that uint32, and every word after it consumed one more."""
    kept_words, kept_ends = reference_decode(np.delete(BLOCK, at))
    assert zero_at(at) == (kept_words, [e + (e > at) for e in kept_ends])


def test_decoder_matches_the_reference_without_zeros():
    assert datagen._decode_words(BLOCK) == (BLOCK_WORDS, BLOCK_ENDS)
    assert len(BLOCK_WORDS) > 40


def test_zero_at_a_syllable_count_draw_is_rejected():
    assert_skipped(0)                   # the first word's count
    assert_skipped(BLOCK_ENDS[2])       # the fourth word's


def test_zero_at_a_vowel_draw_is_rejected():
    assert_skipped(2)                   # first word, first syllable
    assert_skipped(BLOCK_ENDS[0] + 4)   # second word, second syllable


def test_zero_at_a_consonant_draw_is_accepted_as_b():
    words, ends = zero_at(1)            # first word, first consonant
    assert words[0] == b"b" + BLOCK_WORDS[0][1:]
    assert (words[1:], ends) == (BLOCK_WORDS[1:], BLOCK_ENDS)


def test_runs_of_zeros_and_a_cut_off_word():
    # The sixth word's count draw rejected three times over, and a zero
    # in the block's last uint32.
    start = BLOCK_ENDS[4]
    zero_at(start, start + 1, start + 2, len(BLOCK) - 1)
    assert datagen._decode_words(np.zeros(9, dtype=np.uint32)) == ([], [])
    assert datagen._decode_words(BLOCK[:3]) == ([], [])


def test_decoder_matches_the_reference_on_blocks_strewn_with_zeros():
    rng = np.random.default_rng(11)
    for _ in range(500):
        block = rng.integers(0, 2**32, size=rng.integers(1, 60),
                             dtype=np.uint32)
        block[rng.integers(0, len(block), size=rng.integers(0, 6))] = 0
        assert datagen._decode_words(block) == reference_decode(block)


def test_wiki_text_rejects_an_empty_vocabulary():
    with pytest.raises(ValueError, match="vocab_size"):
        datagen.wiki_text(1_000, vocab_size=0)
    with pytest.raises(ValueError, match="vocab_size"):
        datagen.wiki_text(1_000, vocab_size=datagen._WORD_SPACE + 1)


def test_wiki_text_rejects_empty_lines():
    with pytest.raises(ValueError, match="line_words"):
        datagen.wiki_text(1_000, line_words=0)


def test_web_logs_sparse_keys():
    data = datagen.web_logs(100_000, seed=2)
    lines = data.strip().split(b"\n")
    urls = [l.split()[1] for l in lines]
    # Sparse: most URLs unique ("duplicate URLs are rare").
    assert len(set(urls)) > 0.7 * len(urls)
    for line in lines[:20]:
        fields = line.split()
        assert len(fields) == 4
        assert fields[0] == b"en"


def test_teragen_record_structure():
    data = datagen.teragen(500, seed=3)
    assert len(data) == 500 * 100
    # Keys should be highly distinct.
    keys = {data[i:i + 10] for i in range(0, len(data), 100)}
    assert len(keys) > 490


def test_kmeans_points_layout():
    blob = datagen.kmeans_points(100, 4, seed=4)
    pts = np.frombuffer(blob, dtype=np.float32).reshape(100, 4)
    assert pts.shape == (100, 4)
    assert (pts >= 0).all() and (pts <= 100).all()


def test_kmeans_centers_shape():
    c = datagen.kmeans_centers(16, 8, seed=5)
    assert c.shape == (16, 8)
    assert c.dtype == np.float32


def test_matmul_tasks_cover_all_partials():
    blob, a, b = datagen.matmul_tasks(64, 16, seed=6)
    rec = datagen.matmul_record_size(16)
    assert len(blob) == rec * (64 // 16) ** 3
    # First record header is (0, 0, 0).
    hdr = np.frombuffer(blob[:12], dtype="<i4")
    assert tuple(hdr) == (0, 0, 0)


def test_matmul_tile_extraction_correct():
    blob, a, b = datagen.matmul_tasks(32, 16, seed=7)
    rec = datagen.matmul_record_size(16)
    first = blob[:rec]
    tiles = np.frombuffer(first, dtype=np.float32, offset=12)
    a00 = tiles[:256].reshape(16, 16)
    b00 = tiles[256:].reshape(16, 16)
    assert np.array_equal(a00, a[:16, :16])
    assert np.array_equal(b00, b[:16, :16])


def test_matmul_size_must_divide():
    with pytest.raises(ValueError):
        datagen.matmul_tasks(100, 33)
