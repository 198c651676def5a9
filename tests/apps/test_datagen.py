"""Tests for the synthetic dataset generators."""

import hashlib

import numpy as np
import pytest

from repro.apps import datagen
from repro.service.trace import synthetic_trace

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:    # pragma: no cover - hypothesis is an optional extra
    HAVE_HYPOTHESIS = False

KiB, MiB = 1024, 1024 * 1024

#: sha256 of ``wiki_text(nbytes, seed)``, taken from the word-by-word
#: vocabulary draw and the join-based text: the shuffle-storm input, a
#: 16 KiB and a 64 KiB service-trace row, the small-scale and the full
#: wc-datapath input, and one more
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
    (24 * MiB, 102):
        "4b6b14473eaa256bc1c6ee7c790327d9a769125c168f6f59b351c84a94bdfed5",
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


def join_wiki_text(nbytes, seed=7, vocab_size=20_000, zipf_a=1.5,
                   line_words=12):
    """The ``bytes`` objects and joins ``datagen.wiki_text`` must
    reproduce: the vocabulary as an object array, shuffled, one
    ``b" ".join`` per line."""
    rng = np.random.default_rng(seed)
    vocab = np.array(scalar_vocabulary(vocab_size, rng), dtype=object)
    rng.shuffle(vocab)
    avg_word = float(np.mean([len(w) for w in vocab])) + 1
    n_words = max(1, int(nbytes / avg_word))
    ranks = rng.zipf(zipf_a, size=n_words)
    ranks = np.minimum(ranks, vocab_size) - 1
    words = vocab[ranks].tolist()
    lines = [b" ".join(words[i:i + line_words])
             for i in range(0, len(words), line_words)]
    return b"\n".join(lines) + b"\n"


def spell(codes):
    """The words ``uint64`` codes stand for: big-endian bytes, NULs off."""
    return [int(c).to_bytes(8, "big").rstrip(b"\0") for c in codes]


def decode(block):
    """:func:`datagen._decode_words` as words and a list of ends."""
    codes, ends = datagen._decode_words(block)
    assert codes.dtype == np.uint64
    return spell(codes), ends.tolist()


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
        codes = datagen._vocabulary(size, new)
        assert codes.dtype == np.uint64
        assert spell(codes) == scalar_vocabulary(size, ref)
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
    words, ends = decode(block)
    assert (words, ends) == reference_decode(block)
    return words, ends


def assert_skipped(at):
    """The zero at ``at`` was rejected: the words are those of the block
    without that uint32, and every word after it consumed one more."""
    kept_words, kept_ends = reference_decode(np.delete(BLOCK, at))
    assert zero_at(at) == (kept_words, [e + (e > at) for e in kept_ends])


def test_decoder_matches_the_reference_without_zeros():
    assert decode(BLOCK) == (BLOCK_WORDS, BLOCK_ENDS)
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
    assert decode(np.zeros(9, dtype=np.uint32)) == ([], [])
    assert decode(BLOCK[:3]) == ([], [])


def test_decoder_matches_the_reference_on_blocks_strewn_with_zeros():
    rng = np.random.default_rng(11)
    for _ in range(500):
        block = rng.integers(0, 2**32, size=rng.integers(1, 60),
                             dtype=np.uint32)
        block[rng.integers(0, len(block), size=rng.integers(0, 6))] = 0
        assert decode(block) == reference_decode(block)


def test_codes_sort_as_the_words_they_spell():
    words = [b"bada", b"badaba", b"badabaca", b"badu", b"wuwu", b"wuwuwuwu"]
    codes = np.array([int.from_bytes(w.ljust(8, b"\0"), "big")
                      for w in words], dtype=np.uint64)
    rng = np.random.default_rng(0)
    shuffled = rng.permutation(codes)
    assert spell(np.sort(shuffled)) == sorted(spell(shuffled)) == words


#: (nbytes, seed, vocab_size, zipf_a, line_words) at the corners of the
#: property below; 5,000 bytes hold well under 10,000 words
TEXT_CASES = [
    (1, 0, 1, 1.5, 12),
    (200 * KiB, 1, 2_000, 1.5, 12),
    (5_000, 2, 300, 2.5, 1),
    (5_000, 3, 50, 1.5, 2),
    (5_000, 4, 7, 2.5, 10_000),
    (40_000, 5, 2_000, 2.5, 12),
]


def check_text(nbytes, seed, vocab_size, zipf_a, line_words):
    assert datagen.wiki_text(nbytes, seed, vocab_size, zipf_a,
                             line_words) == join_wiki_text(
        nbytes, seed, vocab_size, zipf_a, line_words)


@pytest.mark.parametrize("case", TEXT_CASES)
def test_wiki_text_equals_the_joined_words(case):
    check_text(*case)


if HAVE_HYPOTHESIS:

    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 200 * KiB), st.integers(0, 2**32 - 1),
           st.integers(1, 2_000), st.sampled_from((1.5, 2.5)),
           st.sampled_from((1, 2, 12, 10**6)))
    def test_wiki_text_equals_the_joined_words_anywhere(
            nbytes, seed, vocab_size, zipf_a, line_words):
        check_text(nbytes, seed, vocab_size, zipf_a, line_words)

else:    # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parametrize("seed", range(6))
    def test_wiki_text_equals_the_joined_words_anywhere(seed):
        draw = np.random.default_rng(seed)
        check_text(int(draw.integers(1, 200 * KiB)), seed,
                   int(draw.integers(1, 2_000)), (1.5, 2.5)[seed % 2],
                   (1, 2, 12, 10**6)[seed % 4])


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
