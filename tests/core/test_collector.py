"""Tests for the map-output collectors (hash table vs buffer pool)."""

import pytest

from repro.apps.wordcount import WordCountApp
from repro.core.collector import collect_map_output, hash_contention
from repro.hw.presets import CPU_TYPE1, GTX480


APP = WordCountApp()
REPETITIVE = [(b"the", 1)] * 60 + [(b"fox", 1)] * 30 + [(b"dog", 1)] * 10
SPARSE = [(b"w%d" % i, 1) for i in range(100)]


def test_hash_contention_bounds():
    assert hash_contention(0, 0) == 0.0
    assert hash_contention(100, 100) == 0.0
    assert hash_contention(100, 1) == pytest.approx(0.99)
    assert 0.0 <= hash_contention(50, 10) <= 1.0


def test_buffer_collector_passes_pairs_through():
    out, extra = collect_map_output("buffer", APP, CPU_TYPE1, REPETITIVE,
                                    use_combiner=False, chunk_index=0)
    assert list(out.pairs) == REPETITIVE
    assert out.decode_items == 100
    assert extra.atomic_intensity == pytest.approx(0.05)


def test_hash_with_combiner_aggregates():
    out, extra = collect_map_output("hash", APP, CPU_TYPE1, REPETITIVE,
                                    use_combiner=True, chunk_index=0)
    assert sorted(out.pairs) == [(b"dog", 10), (b"fox", 30), (b"the", 60)]
    assert out.decode_items == 3


def test_hash_without_combiner_keeps_all_values_grouped():
    out, extra = collect_map_output("hash", APP, CPU_TYPE1, REPETITIVE,
                                    use_combiner=False, chunk_index=0)
    assert len(out.pairs) == 100           # values preserved
    assert out.decode_items == 3           # but decoded per unique key
    # Compaction kernel: values of one key are contiguous.
    keys = [k for k, _ in out.pairs]
    assert keys == sorted(keys)
    # The compaction kernel costs an extra launch (Table II, config ii).
    assert extra.launches >= 1


def test_combiner_shrinks_intermediate_volume():
    with_comb, _ = collect_map_output("hash", APP, CPU_TYPE1, REPETITIVE,
                                      use_combiner=True, chunk_index=0)
    without, _ = collect_map_output("hash", APP, CPU_TYPE1, REPETITIVE,
                                    use_combiner=False, chunk_index=0)
    assert with_comb.raw_bytes < without.raw_bytes


def test_repetitive_keys_contend_on_hash_table():
    _, rep = collect_map_output("hash", APP, CPU_TYPE1, REPETITIVE,
                                use_combiner=True, chunk_index=0)
    _, sparse = collect_map_output("hash", APP, CPU_TYPE1, SPARSE,
                                   use_combiner=True, chunk_index=0)
    assert rep.atomic_intensity > sparse.atomic_intensity
    assert sparse.atomic_intensity == 0.0


def test_buffer_kernel_cheaper_than_hash_on_repetitive_keys():
    """The paper's config (iii) effect: simple collection lowers kernel
    time for WordCount's repetitive workload."""
    _, hash_extra = collect_map_output("hash", APP, CPU_TYPE1, REPETITIVE,
                                       use_combiner=True, chunk_index=0)
    _, buf_extra = collect_map_output("buffer", APP, CPU_TYPE1, REPETITIVE,
                                      use_combiner=False, chunk_index=0)
    assert buf_extra.time_on(CPU_TYPE1) < hash_extra.time_on(CPU_TYPE1)


def test_gpu_pays_more_for_contention():
    _, extra = collect_map_output("hash", APP, GTX480, REPETITIVE,
                                  use_combiner=True, chunk_index=0)
    base_like = extra.roofline_on(GTX480) / (
        1.0 + GTX480.atomic_penalty * extra.atomic_intensity)
    cpu_pen = extra.roofline_on(CPU_TYPE1) / (
        1.0 + CPU_TYPE1.atomic_penalty * extra.atomic_intensity)
    assert extra.atomic_intensity > 0.5
    assert GTX480.atomic_penalty > CPU_TYPE1.atomic_penalty


def test_unknown_collector_rejected():
    with pytest.raises(ValueError):
        collect_map_output("magic", APP, CPU_TYPE1, [], False, 0)


def test_combiner_on_buffer_collector_rejected():
    with pytest.raises(ValueError):
        collect_map_output("buffer", APP, CPU_TYPE1, [], True, 0)


def test_empty_pairs():
    out, extra = collect_map_output("hash", APP, CPU_TYPE1, [],
                                    use_combiner=True, chunk_index=3)
    assert list(out.pairs) == []
    assert out.raw_bytes == 0
    assert out.chunk_index == 3
