"""Property-based tests: batched collection == per-record collection.

The batched map kernel feeds the collector one *batch* of emitted pairs
at a time instead of one split's worth (or, at ``batch_size=1``, one
record's).  Whatever the slicing, the data that reaches the partitioner
must be the same: grouped totals, combiner results and (for the buffer
collector) the exact pair stream and additive cost totals.  Key
interning is a host-memory optimisation and must never change results.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.wordcount import WordCountApp
from repro.core.batching import slice_batches
from repro.core.collector import KeyInterner, collect_map_output
from repro.hw.presets import CPU_TYPE1

APP = WordCountApp()

# Small alphabet so streams repeat keys (the interesting case for the
# hash collector, the combiner and interning).
_keys = st.sampled_from([b"the", b"fox", b"dog", b"a", b"b", b"lazy"])
_values = st.integers(min_value=1, max_value=9)
_streams = st.lists(st.tuples(_keys, _values), max_size=120)
_batch_sizes = st.integers(min_value=1, max_value=140)


def _group_sum(pairs):
    totals = defaultdict(int)
    for k, v in pairs:
        totals[k] += v
    return dict(totals)


def _collect_stream(collector, pairs, batch_size, use_combiner,
                    interner=None):
    """Collect a stream batch-by-batch; returns (all pairs, extra costs)."""
    collected, extras = [], []
    for chunk_index, batch in enumerate(slice_batches(pairs, batch_size)):
        out, extra = collect_map_output(
            collector, APP, CPU_TYPE1, list(batch),
            use_combiner=use_combiner, chunk_index=chunk_index,
            interner=interner)
        collected.extend(out.pairs)
        extras.append(extra)
    return collected, extras


@given(pairs=_streams, batch=_batch_sizes, intern=st.booleans())
@settings(max_examples=60, deadline=None)
def test_hash_collector_grouped_totals_invariant(pairs, batch, intern):
    interner = KeyInterner() if intern else None
    batched, _ = _collect_stream("hash", pairs, batch,
                                 use_combiner=False, interner=interner)
    per_record, _ = _collect_stream("hash", pairs, 1, use_combiner=False)
    assert _group_sum(batched) == _group_sum(per_record)
    # Value multiset also survives (compaction only reorders).
    assert sorted(batched) == sorted(per_record)


@given(pairs=_streams, batch=_batch_sizes, intern=st.booleans())
@settings(max_examples=60, deadline=None)
def test_combiner_results_invariant(pairs, batch, intern):
    """Partial aggregation per batch must pre-reduce to the same totals
    the per-record run produces (the combiner is associative)."""
    interner = KeyInterner() if intern else None
    batched, _ = _collect_stream("hash", pairs, batch,
                                 use_combiner=True, interner=interner)
    per_record, _ = _collect_stream("hash", pairs, 1, use_combiner=True)
    assert _group_sum(batched) == _group_sum(per_record)


@given(pairs=_streams, batch=_batch_sizes)
@settings(max_examples=60, deadline=None)
def test_buffer_collector_stream_and_costs_exactly_additive(pairs, batch):
    batched, extras_b = _collect_stream("buffer", pairs, batch,
                                        use_combiner=False)
    per_record, extras_1 = _collect_stream("buffer", pairs, 1,
                                           use_combiner=False)
    # The buffer pool passes pairs through untouched, in order.
    assert batched == pairs
    assert per_record == pairs
    # And its charged cost is exactly additive in the emitted pairs.
    assert sum(e.flops for e in extras_b) == sum(e.flops for e in extras_1)
    assert (sum(e.device_bytes for e in extras_b)
            == sum(e.device_bytes for e in extras_1))
    assert sum(e.launches for e in extras_b) == 0
    assert sum(e.launches for e in extras_1) == 0


@given(pairs=_streams, batch=_batch_sizes, combiner=st.booleans())
@settings(max_examples=60, deadline=None)
def test_interning_changes_identity_not_results(pairs, batch, combiner):
    interner = KeyInterner()
    with_interner, extras_i = _collect_stream(
        "hash", pairs, batch, use_combiner=combiner, interner=interner)
    without, extras_n = _collect_stream(
        "hash", pairs, batch, use_combiner=combiner, interner=None)
    assert with_interner == without
    # Same charged costs, pair for pair.
    assert [(e.flops, e.device_bytes, e.atomic_intensity, e.launches)
            for e in extras_i] \
        == [(e.flops, e.device_bytes, e.atomic_intensity, e.launches)
            for e in extras_n]
    # Every occurrence of a key in the interned output is one object.
    canon = {}
    for k, _v in with_interner:
        assert canon.setdefault(k, k) is k
    assert len(interner) == len({k for k, _ in pairs})


def test_unhashable_key_fails_clearly_in_the_hash_collector():
    """The hash table cannot hold such a key: the collector says so, and
    says how to run the job instead; the buffer pool takes it as is."""
    pairs = [(b"ok", 1), ([1, 2], 1)]
    for use_combiner in (False, True):
        with pytest.raises(TypeError) as err:
            collect_map_output("hash", APP, CPU_TYPE1, pairs,
                               use_combiner=use_combiner, chunk_index=0,
                               interner=KeyInterner())
        message = str(err.value)
        assert "hash collector" in message
        assert "list" in message
        assert 'collector="buffer"' in message
    out, _ = collect_map_output("buffer", APP, CPU_TYPE1, pairs,
                                use_combiner=False, chunk_index=0)
    assert list(out.pairs) == pairs
