"""Deterministic synthetic dataset generators.

Each generator is the laptop-scale counterpart of one of the paper's
inputs (see EXPERIMENTS.md for the scale mapping):

* :func:`wiki_text` — the English wikipedia dump used by WordCount:
  zipf-distributed words, "high repetition of a smaller number of words
  beside a large number of sparse words".
* :func:`web_logs` — WikiBench web-server traces used by PVC: "highly
  sparse in that duplicate URLs are rare ... a massive number of keys".
* :func:`teragen` — TeraSort's 10-byte random keys with 90-byte values.
* :func:`kmeans_points` — random single-precision observation vectors.
* :func:`matmul_tasks` — tiled task records for the matrix multiply.

Everything is seeded and reproducible.  ``wiki_text`` runs over whole
arrays, with no Python object per word: its vocabulary is read from one
bulk draw of the generator's uint32 stream, decoded by numpy's own
bounded-integer rule into ``uint64`` letter codes (see
:func:`_vocabulary` for that contract and the test that holds numpy to
it), and its text is assembled as one byte array.  Every output byte is
what joining ``bytes`` words line by line gave; ``tests/apps`` keeps
that join as the reference.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "wiki_text",
    "web_logs",
    "teragen",
    "kmeans_points",
    "kmeans_centers",
    "matmul_tasks",
    "prefix_values",
    "pagerank_edges",
    "TERA_RECORD",
]

TERA_RECORD = 100  # bytes: 10-byte key + 90-byte value

_CONSONANTS = "bcdfghklmnprstvw"
_VOWELS = "aeiou"
_CONSONANT_BYTES = np.frombuffer(_CONSONANTS.encode(), dtype=np.uint8)
_VOWEL_BYTES = np.frombuffer(_VOWELS.encode(), dtype=np.uint8)
#: distinct words of 2-4 consonant+vowel syllables
_WORD_SPACE = sum((len(_CONSONANTS) * len(_VOWELS)) ** s for s in (2, 3, 4))
#: uint32s drawn per wanted word up front: a word costs 7 on average and
#: about one word in seven repeats an earlier one at 20,000 words
_DRAWS_PER_WORD = 9
#: the letter bytes of a 2, 3 or 4 syllable word's code; the rest is NUL
_LETTER_MASK = np.array([2**64 - 2**32, 2**64 - 2**16, 2**64 - 1],
                        dtype=np.uint64)


def _below(x: np.ndarray, r: int) -> np.ndarray:
    """numpy's bounded value ``(x * r) >> 32`` of each uint32 in ``x``,
    as uint8: how many of the thresholds ``ceil(k * 2**32 / r)``,
    ``k = 1 .. r - 1``, it reaches (no 64-bit product)."""
    value = np.zeros(x.shape, dtype=np.uint8)
    for k in range(1, r):
        value += x >= -(-k * 2**32 // r)
    return value


def _decode_words(block: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The words the ``next_uint32`` stream ``block`` spells, in draw
    order, as ``uint64`` codes, and how many uint32s each has consumed
    through its end.

    A word is one draw below 3 (its syllable count minus two), then a
    consonant draw below 16 and a vowel draw below 5 per syllable, each
    decoded by numpy's bounded-integer rule (Lemire): value
    ``(x * r) >> 32``, where ``x`` is rejected, and the next uint32
    read, while ``(x * r) % 2**32 < (2**32 - r) % r``.  For ``r = 3``
    and ``r = 5`` that rejects exactly ``x == 0``; for ``r = 16`` it
    rejects nothing.  A word the block cuts off is left out.

    A word's code is its 4, 6 or 8 letters, NUL-padded to 8 bytes, read
    as a big-endian integer: ``b"bada"`` is ``0x6261646100000000``.
    """
    drawn = np.arange(len(block))       # block index of each draw kept
    x = block
    while True:
        steps = (5 + 2 * _below(x, 3)).tobytes()    # 1 + 2 * syllables
        n, p = len(steps), 0
        walk: List[int] = []
        while p < n:
            walk.append(p)
            p += steps[p]
        if p > n:
            p = walk.pop()              # the block cuts this word off
        starts = np.array(walk, dtype=np.int64)
        # Within a word, offset 0 is the count draw and even offsets are
        # vowel draws: a 0 there is rejected and leaves the stream.
        zero = np.flatnonzero(x[:p] == 0)
        offset = zero - starts[np.searchsorted(starts, zero, "right") - 1]
        rejected = zero[offset % 2 == 0]
        if not len(rejected):
            break
        drawn = np.delete(drawn, rejected[0])
        x = np.delete(x, rejected[0])
    bounds = np.append(starts, p)
    # Row i: the 8 draws after word i's count, [consonant, vowel, ...];
    # those past a short word's end belong to the next and are masked.
    draws = sliding_window_view(np.append(x, np.zeros(8, x.dtype)),
                                8)[starts + 1]
    letters = np.empty(draws.shape, dtype=np.uint8)
    letters[:, 0::2] = _CONSONANT_BYTES[draws[:, 0::2] >> 28]
    letters[:, 1::2] = _VOWEL_BYTES[_below(draws[:, 1::2], 5)]
    syllables = np.diff(bounds) // 2
    codes = letters.view(">u8").ravel() & _LETTER_MASK[syllables - 2]
    return codes, drawn[bounds[1:] - 1] + 1


def _vocabulary(size: int, rng: np.random.Generator) -> np.ndarray:
    """Pronounceable pseudo-words, distinct, 4-8 letters, as sorted
    ``uint64`` codes (see :func:`_decode_words`).

    NUL sorts before every letter, so the padding makes integer order
    the words' ``bytes`` order, a word before any longer word it begins:
    sorting the codes sorts the words.

    Draw contract: the words, their order and the state ``rng`` is left
    in are exactly those of drawing word by word — ``rng.integers(2, 5)``
    syllables, then ``rng.integers(16)`` and ``rng.integers(5)`` for each
    one's consonant and vowel — until ``size`` distinct words are in
    hand.  Those scalar draws each read one ``next_uint32`` of the bit
    generator, plus one more per rejection; here one bulk
    ``rng.integers(0, 2**32, dtype=np.uint32)`` reads the same stream
    and :func:`_decode_words` applies numpy's rule to it.  A distinct
    word enters at its code's first draw; the ``size``-th to enter
    fixes the consumed count.  The state is then rewound and exactly
    that count re-drawn, so later draws on ``rng`` see what they always
    saw.  ``tests/apps/test_datagen.py`` keeps the word-by-word loop as
    the reference: if a numpy release changes its bounded-integer rule,
    that test fails instead of the inputs drifting.
    """
    if size < 1:
        return np.empty(0, dtype=np.uint64)
    saved = rng.bit_generator.state
    block = np.empty(0, dtype=np.uint32)
    want = _DRAWS_PER_WORD * size
    while True:
        block = np.concatenate([block, rng.integers(
            0, 2**32, size=want - len(block), dtype=np.uint32)])
        codes, ends = _decode_words(block)
        order = np.argsort(codes)
        ranked = codes[order]
        head = np.ones(len(ranked), dtype=bool)
        head[1:] = ranked[1:] != ranked[:-1]
        if np.count_nonzero(head) >= size:
            break
        want *= 2
    heads = np.flatnonzero(head)
    enters = np.minimum.reduceat(order, heads)  # each distinct code's first
    last = np.partition(enters, size - 1)[size - 1]
    rng.bit_generator.state = saved
    rng.integers(0, 2**32, size=ends[last], dtype=np.uint32)
    return ranked[heads[enters <= last]]


def wiki_text(nbytes: int, seed: int = 7, vocab_size: int = 20_000,
              zipf_a: float = 1.5, line_words: int = 12) -> bytes:
    """Zipf-distributed text, newline-separated lines, ~``nbytes`` long."""
    if not 1 <= vocab_size <= _WORD_SPACE:
        raise ValueError(f"vocab_size must be between 1 and {_WORD_SPACE}, "
                         f"not {vocab_size!r}")
    if line_words < 1:
        raise ValueError(f"line_words must be >= 1, not {line_words!r}")
    rng = np.random.default_rng(seed)
    vocab = _vocabulary(vocab_size, rng)
    # Decouple zipf rank from alphabetical order.  A shuffle's
    # permutation depends only on the array's length, so the codes land
    # where the words of an object array did.
    rng.shuffle(vocab)
    letters = vocab.astype(">u8").view(np.uint8).reshape(-1, 8)
    avg_word = float(np.mean(np.count_nonzero(letters, axis=1))) + 1
    n_words = max(1, int(nbytes / avg_word))
    ranks = rng.zipf(zipf_a, size=n_words)
    np.minimum(ranks, vocab_size, out=ranks)
    ranks -= 1
    # A space after each word, or a newline after every line_words-th
    # word and the last.  Each half of the words becomes one row per
    # word, its 8 code bytes then its separator, with the NULs dropped.
    # Halves keep every temporary under the ranks' 8 bytes a word: glibc
    # raises its mmap threshold to the largest block freed, and the heap
    # then keeps what the allocations under it free (9-byte rows for a
    # whole 24 MiB text added 4 % to the peak RSS of the run reading it).
    sep = np.full(n_words, ord(" "), dtype=np.uint8)
    sep[line_words - 1::line_words] = ord("\n")
    sep[-1] = ord("\n")
    halves = []
    for part, seps in zip(np.array_split(ranks, 2), np.array_split(sep, 2)):
        rows = np.empty((len(part), 9), dtype=np.uint8)
        rows[:, :8] = np.take(letters, part, axis=0)
        rows[:, 8] = seps
        halves.append(rows.tobytes().translate(None, b"\0"))
    del ranks, sep, part, seps          # free them before the text
    return b"".join(halves)


def web_logs(nbytes: int, seed: int = 11, hot_fraction: float = 0.05,
             hot_urls: int = 500) -> bytes:
    """Web-server log lines: ``project url count size``.

    URLs are mostly unique (a huge sparse key space) with a small hot set,
    mirroring the WikiBench traces.
    """
    rng = np.random.default_rng(seed)
    approx_line = 40
    n_lines = max(1, nbytes // approx_line)
    hot = rng.random(n_lines) < hot_fraction
    ids = np.where(
        hot,
        rng.integers(0, hot_urls, size=n_lines),
        rng.integers(hot_urls, hot_urls + 50 * n_lines, size=n_lines))
    sizes = rng.integers(200, 99_999, size=n_lines)
    lines = [b"en wiki/page_%d 1 %d" % (u, s)
             for u, s in zip(ids.tolist(), sizes.tolist())]
    return b"\n".join(lines) + b"\n"


def teragen(n_records: int, seed: int = 13) -> bytes:
    """``n_records`` TeraSort records: 10 random key bytes + 90 value bytes."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=(n_records, TERA_RECORD),
                        dtype=np.uint8)
    return data.tobytes()


def kmeans_points(n_points: int, dims: int, seed: int = 17) -> bytes:
    """Random observation vectors as packed float32 records."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n_points, dims), dtype=np.float32) * 100.0
    return pts.tobytes()


def kmeans_centers(k: int, dims: int, seed: int = 19) -> np.ndarray:
    """Initial cluster centers (the paper distributes them to all nodes
    via Hadoop's DistributedCache; Glasswing ships them in job state)."""
    rng = np.random.default_rng(seed)
    return (rng.random((k, dims), dtype=np.float32) * 100.0)


def prefix_values(n: int, seed: int = 29, lo: int = -1000,
                  hi: int = 1000) -> bytes:
    """``n`` packed ``(index, value)`` int64 records for the prefix-sums
    DAG: indices ``0..n-1`` in order, values uniform in ``[lo, hi]``.
    Integer math keeps the scan bit-exact against ``numpy.cumsum``."""
    rng = np.random.default_rng(seed)
    rows = np.empty((n, 2), dtype="<i8")
    rows[:, 0] = np.arange(n)
    rows[:, 1] = rng.integers(lo, hi + 1, size=n)
    return rows.tobytes()


def pagerank_edges(n_vertices: int, n_edges: int, seed: int = 31) -> bytes:
    """``n_edges`` packed ``(src, dst)`` int32 edge records.

    The first ``n_vertices`` edges have ``src = 0..n_vertices-1`` so
    every vertex has at least one out-edge (no dangling-mass term in the
    PageRank update); the remainder are uniform random.  The whole list
    is then shuffled deterministically.
    """
    if n_edges < n_vertices:
        raise ValueError("need n_edges >= n_vertices (one out-edge each)")
    rng = np.random.default_rng(seed)
    rows = np.empty((n_edges, 2), dtype="<i4")
    rows[:n_vertices, 0] = np.arange(n_vertices)
    rows[n_vertices:, 0] = rng.integers(0, n_vertices,
                                        size=n_edges - n_vertices)
    rows[:, 1] = rng.integers(0, n_vertices, size=n_edges)
    rng.shuffle(rows, axis=0)
    return rows.tobytes()


def matmul_tasks(matrix_size: int, tile: int, seed: int = 23
                 ) -> Tuple[bytes, np.ndarray, np.ndarray]:
    """Task records for C = A @ B with ``tile``-sized sub-matrices.

    Each record is ``(i, j, k, A_ik, B_kj)`` packed as three little-endian
    int32 headers followed by the two float32 tiles — the input layout a
    Glasswing MM job reads, one partial-product task per record.  Returns
    ``(records_blob, A, B)`` so tests can verify against ``A @ B``.
    """
    if matrix_size % tile:
        raise ValueError("matrix_size must be a multiple of tile")
    rng = np.random.default_rng(seed)
    a = rng.random((matrix_size, matrix_size), dtype=np.float32)
    b = rng.random((matrix_size, matrix_size), dtype=np.float32)
    t = matrix_size // tile
    parts = []
    header = np.empty(3, dtype="<i4")
    for i in range(t):
        for j in range(t):
            for k in range(t):
                header[:] = (i, j, k)
                parts.append(header.tobytes())
                parts.append(np.ascontiguousarray(
                    a[i * tile:(i + 1) * tile, k * tile:(k + 1) * tile]).tobytes())
                parts.append(np.ascontiguousarray(
                    b[k * tile:(k + 1) * tile, j * tile:(j + 1) * tile]).tobytes())
    return b"".join(parts), a, b


def matmul_record_size(tile: int) -> int:
    """Size of one MM task record."""
    return 12 + 2 * tile * tile * 4


__all__.append("matmul_record_size")
