"""Unit tests for the Timeline/Span tracing machinery."""

import random

import pytest

from repro.simt import Span, Timeline

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:    # pragma: no cover - hypothesis is an optional extra
    HAVE_HYPOTHESIS = False


def test_record_and_duration():
    tl = Timeline()
    s = tl.record("map.kernel", "n0", 1.0, 4.0, chunk=7)
    assert s.duration == 3.0
    assert s.meta["chunk"] == 7
    assert len(tl) == 1


def test_record_rejects_negative_duration():
    tl = Timeline()
    with pytest.raises(ValueError):
        tl.record("x", "n0", 5.0, 4.0)


def test_busy_time_counts_parallel_work_multiply():
    tl = Timeline()
    tl.record("part", "t0", 0.0, 10.0)
    tl.record("part", "t1", 0.0, 10.0)
    assert tl.busy_time("part") == 20.0


def test_occupied_time_merges_overlap():
    tl = Timeline()
    tl.record("part", "t0", 0.0, 10.0)
    tl.record("part", "t1", 5.0, 12.0)
    tl.record("part", "t2", 20.0, 25.0)
    assert tl.occupied_time("part") == 17.0


def test_occupied_time_touching_intervals():
    tl = Timeline()
    tl.record("x", "a", 0.0, 5.0)
    tl.record("x", "a", 5.0, 10.0)
    assert tl.occupied_time("x") == 10.0


def test_span_extent():
    tl = Timeline()
    tl.record("io", "a", 2.0, 3.0)
    tl.record("io", "b", 10.0, 11.0)
    assert tl.span_extent("io") == 9.0
    assert tl.span_extent("missing") == 0.0


def test_filter_by_name():
    tl = Timeline()
    tl.record("k", "n0", 0.0, 1.0)
    tl.record("k", "n1", 0.0, 2.0)
    assert tl.busy_time("k", name="n1") == 2.0
    assert tl.busy_time("k") == 3.0


def test_span_overlap_predicate():
    """Spans that only touch do not overlap: occupied time is their
    union, and a shared endpoint adds nothing."""
    tl = Timeline()
    tl.record("x", "a", 0.0, 5.0)
    tl.record("x", "b", 4.0, 6.0)
    assert tl.occupied_time("x") == 6.0
    tl.record("x", "c", 6.0, 7.0)
    assert tl.occupied_time("x") == 7.0


def test_zero_length_spans():
    """Markers (pass-through stages) are legal and cost no occupied time."""
    tl = Timeline()
    s = tl.record("map.stage", "n0", 2.0, 2.0, passthrough=True)
    assert s.duration == 0.0
    assert tl.occupied_time("map.stage") == 0.0
    assert tl.busy_time("map.stage") == 0.0
    # A marker inside a real span must not change the union either.
    tl.record("map.stage", "n0", 0.0, 4.0)
    assert tl.occupied_time("map.stage") == 4.0


def test_zero_length_span_extent():
    """Extent of nothing-but-markers is zero; markers still move edges."""
    tl = Timeline()
    tl.record("m", "a", 3.0, 3.0)
    assert tl.span_extent("m") == 0.0
    tl.record("m", "a", 1.0, 2.0)
    assert tl.span_extent("m") == 2.0   # marker at 3.0 extends the window


def test_occupied_time_name_none_merges_across_nodes():
    """With name=None the union covers *all* instances — two nodes busy
    in the same window count once, unlike busy_time."""
    tl = Timeline()
    tl.record("map.kernel", "node0", 0.0, 4.0)
    tl.record("map.kernel", "node1", 2.0, 6.0)
    tl.record("map.kernel", "node1", 8.0, 9.0)
    assert tl.busy_time("map.kernel") == 9.0
    assert tl.occupied_time("map.kernel") == 7.0
    assert tl.occupied_time("map.kernel", name="node0") == 4.0
    assert tl.occupied_time("map.kernel", name="node1") == 5.0


# -- the grouped index is invisible ------------------------------------------
# Every query must answer exactly what a full scan of ``spans`` answers,
# whoever appended and whenever the index was last brought up to date.

class ScanTimeline(Timeline):
    """The reference: each query is a full scan of ``spans`` (the query
    bodies ``Timeline`` had before it was indexed)."""

    @classmethod
    def over(cls, timeline):
        """A scanning view of the very lists ``timeline`` records into."""
        ref = cls()
        ref.spans, ref.waits = timeline.spans, timeline.waits
        ref.telemetry = timeline.telemetry
        return ref

    def _scan(self, category, name=None):
        return [s for s in self.spans
                if s.category == category and (name is None or s.name == name)]

    def by_category(self, category, name=None):
        return self._scan(category, name)

    def categories(self):
        return sorted({s.category for s in self.spans})

    def busy_time(self, category, name=None):
        return sum(s.duration for s in self._scan(category, name))

    def span_extent(self, category, name=None):
        sel = self._scan(category, name)
        if not sel:
            return 0.0
        return max(s.end for s in sel) - min(s.start for s in sel)

    def occupied_time(self, category, name=None):
        total, cur_start, cur_end = 0.0, None, 0.0
        for start, end in sorted((s.start, s.end)
                                 for s in self._scan(category, name)):
            if cur_start is None:
                cur_start, cur_end = start, end
            elif start <= cur_end:
                cur_end = max(cur_end, end)
            else:
                total += cur_end - cur_start
                cur_start, cur_end = start, end
        if cur_start is not None:
            total += cur_end - cur_start
        return total


CATEGORIES = ("map.input", "map.kernel", "reduce.kernel", "net.transfer")
NAMES = ("node0", "node1", "node2")
FALLBACK_SEEDS = tuple(range(12))


def assert_same_answers(timeline):
    """Every query of ``timeline`` against a scan of its own span list —
    exact equality, floats included."""
    ref = ScanTimeline.over(timeline)
    assert len(timeline) == len(ref.spans)
    assert timeline.categories() == ref.categories()
    for category in CATEGORIES + ("absent",):
        for name in (None,) + NAMES + ("nobody",):
            for query in ("by_category", "busy_time", "span_extent",
                          "occupied_time"):
                assert (getattr(timeline, query)(category, name)
                        == getattr(ref, query)(category, name)), \
                    (query, category, name)
        # a fresh list each time: what a caller does to it stays with them
        timeline.by_category(category).clear()


def _random_span_args(rng):
    start = rng.choice((0.0, rng.random() * 10))
    length = rng.choice((0.0, rng.random(), rng.random() * 5))
    return (rng.choice(CATEGORIES), rng.choice(NAMES), start, start + length)


def check_index_is_invisible(seed):
    """Interleave every way a span reaches ``spans`` with queries."""
    rng = random.Random(seed)
    timeline = Timeline()
    fork = timeline.fork("job7")
    assert_same_answers(timeline)               # empty, index never built
    for _ in range(rng.randrange(1, 60)):
        op = rng.randrange(5)
        if op == 0:
            timeline.record(*_random_span_args(rng), chunk=rng.randrange(9))
        elif op == 1:
            fork.record(*_random_span_args(rng))    # -> parent.spans.append
        elif op == 2:
            other = Timeline()
            for _ in range(rng.randrange(4)):
                other.record(*_random_span_args(rng))
            timeline.spans.extend(other.spans)
        elif op == 3:
            timeline.spans.append(Span(*_random_span_args(rng)))
        else:
            assert_same_answers(timeline)       # stale by whatever came since
            assert_same_answers(fork)
    assert_same_answers(timeline)
    assert_same_answers(fork)
    assert [s for s in timeline.spans if s.meta.get("job") == "job7"] \
        == fork.spans


if HAVE_HYPOTHESIS:

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**20))
    def test_index_is_invisible(seed):
        check_index_is_invisible(seed)

else:    # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
    def test_index_is_invisible(seed):
        check_index_is_invisible(seed)


def test_query_between_two_appends_sees_both():
    """The stale-index case spelled out: query, append, query, append."""
    tl = Timeline()
    assert tl.by_category("k") == [] and tl.categories() == []
    tl.record("k", "n0", 0.0, 1.0)
    assert tl.busy_time("k") == 1.0
    tl.spans.append(Span("k", "n1", 2.0, 4.0))      # behind record()'s back
    assert tl.busy_time("k") == 3.0
    assert tl.busy_time("k", name="n1") == 2.0
    tl.record("j", "n0", 5.0, 6.0)
    assert tl.categories() == ["j", "k"]
    assert_same_answers(tl)


def test_a_shortened_log_is_regrouped():
    """Nothing in the repo shortens ``spans``; if someone does, the index
    notices the length and starts over instead of answering from memory."""
    tl = Timeline()
    for i in range(4):
        tl.record("k", f"n{i}", float(i), i + 1.0)
    assert tl.busy_time("k") == 4.0
    del tl.spans[1:]
    assert tl.busy_time("k") == 1.0
    assert [s.name for s in tl.by_category("k")] == ["n0"]
