"""Unit tests for the five applications' map/combine/reduce logic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import (KMeansApp, MatMulApp, PageViewApp, TeraSortApp,
                        WordCountApp)
from repro.apps import datagen
from repro.core.api import MapReduceApp
from repro.hw.presets import CPU_TYPE1, GTX480


# ------------------------------------------------------------- wordcount
def test_wc_map_batch():
    app = WordCountApp()
    pairs = app.map_batch([b"the quick fox", b"the dog"])
    assert list(pairs) == [(b"the", 1), (b"quick", 1), (b"fox", 1),
                           (b"the", 1), (b"dog", 1)]


def test_wc_combine_and_reduce():
    app = WordCountApp()
    assert app.combine(b"x", [1, 1, 1]) == [3]
    assert app.reduce(b"x", [3, 2]) == [(b"x", 5)]


def _counter_run_combine(pairs):
    """The ``Counter`` loop WordCount and PageView each carried before
    they shared ``sum_by_key``, kept as the reference."""
    from collections import Counter
    counts = Counter()
    for key, n in pairs:
        counts[key] += n
    return list(counts.items())


def _old_base_run_combine(app, pairs):
    """``MapReduceApp.run_combine`` as it was (a list per pair), kept as
    the reference for the base path."""
    grouped = {}
    for k, v in pairs:
        grouped.setdefault(k, []).append(v)
    out = []
    for k, vs in grouped.items():
        for v in app.combine(k, vs):
            out.append((k, v))
    return out


_count_streams = {
    "dense": st.lists(st.tuples(st.sampled_from([b"the", b"a", b"fox", b"of"]),
                                st.integers(1, 9)), max_size=200),
    "all-unique": st.lists(st.binary(min_size=1, max_size=6), unique=True,
                           max_size=100).map(
                               lambda keys: [(k, 1) for k in keys]),
}


@pytest.mark.parametrize("app", [WordCountApp(), PageViewApp()],
                         ids=["wordcount", "pageview"])
@pytest.mark.parametrize("shape", _count_streams)
@given(data=st.data())
def test_sum_apps_run_combine_shared_path(app, shape, data):
    """Same pairs, in the same (first-occurrence) order, as the Counter
    loop and as the generic base path."""
    pairs = data.draw(_count_streams[shape])
    out = app.run_combine(pairs)
    assert out == _counter_run_combine(pairs)
    assert out == MapReduceApp.run_combine(app, pairs)
    assert app.run_combine(iter(pairs)) == out


def test_wc_run_combine_shared_path():
    app = WordCountApp()
    out = app.run_combine([(b"a", 1), (b"b", 2), (b"a", 3)])
    assert out == [(b"a", 4), (b"b", 2)]


def test_pvc_run_combine_shared_path():
    app = PageViewApp()
    out = app.run_combine([(b"/x", 1), (b"/y", 2), (b"/x", 3)])
    assert out == [(b"/x", 4), (b"/y", 2)]


class _FanCombineApp(MapReduceApp):
    """``combine`` returning zero, one or two values, by key."""

    def combine(self, key, values):
        return [sum(values), len(values)][:key % 3]


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(-5, 5)),
                max_size=120))
def test_base_run_combine_equals_old_base(pairs):
    app = _FanCombineApp()
    assert app.run_combine(pairs) == _old_base_run_combine(app, pairs)
    assert app.run_combine(iter(pairs)) == _old_base_run_combine(app, pairs)


def test_wc_map_cost_scales_with_bytes():
    app = WordCountApp()
    small = app.map_cost(CPU_TYPE1, 10, 1000)
    big = app.map_cost(CPU_TYPE1, 100, 10_000)
    assert big.flops == pytest.approx(10 * small.flops)


# -------------------------------------------------------------- pageview
def test_pvc_map_extracts_url():
    app = PageViewApp()
    pairs = app.map_batch([b"en wiki/Foo 1 1234", b"en wiki/Bar 1 99",
                           b"short"])
    assert pairs == [(b"wiki/Foo", 1), (b"wiki/Bar", 1)]


def test_pvc_cheaper_than_wc_per_byte():
    """PVC does less work per record than WC (the paper's scaling story)."""
    pvc = PageViewApp().map_cost(CPU_TYPE1, 100, 10_000)
    wc = WordCountApp().map_cost(CPU_TYPE1, 100, 10_000)
    assert pvc.flops < wc.flops


# -------------------------------------------------------------- terasort
def test_ts_map_splits_key_value():
    data = datagen.teragen(10, seed=1)
    app = TeraSortApp.from_input(data, sample_every=2)
    records = app.record_format.split_records(data)
    pairs = app.map_batch(records)
    assert len(pairs) == 10
    for (k, v), rec in zip(pairs, records.tolist()):
        assert k == rec[:10] and v == rec[10:]


def test_ts_partitioner_is_monotone():
    data = datagen.teragen(1000, seed=2)
    app = TeraSortApp.from_input(data, sample_every=7)
    keys = sorted(data[i:i + 10] for i in range(0, len(data), 100))
    pids = [app.partition(k, 8) for k in keys]
    assert pids == sorted(pids)
    assert 0 <= min(pids) and max(pids) <= 7


def test_ts_partitioner_balanced():
    data = datagen.teragen(5000, seed=3)
    app = TeraSortApp.from_input(data, sample_every=13)
    from collections import Counter
    counts = Counter(app.partition(data[i:i + 10], 10)
                     for i in range(0, len(data), 100))
    assert len(counts) == 10
    assert max(counts.values()) < 3 * min(counts.values())


def test_ts_requires_sample():
    with pytest.raises(ValueError):
        TeraSortApp([])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.binary(min_size=10, max_size=10), min_size=1, max_size=50),
       st.integers(min_value=1, max_value=16))
def test_ts_partition_respects_split_order_property(keys, n_parts):
    app = TeraSortApp(keys)
    ordered = sorted(keys)
    pids = [app.partition(k, n_parts) for k in ordered]
    assert pids == sorted(pids)


# ---------------------------------------------------------------- kmeans
def test_km_assigns_to_nearest_center():
    centers = np.array([[0.0, 0.0], [10.0, 10.0]], dtype=np.float32)
    app = KMeansApp(centers)
    pts = np.array([[1.0, 1.0], [9.0, 9.0]], dtype=np.float32)
    pairs = app.map_batch(app.record_format.split_records(pts.tobytes()))
    assert [k for k, _ in pairs] == [0, 1]


def test_km_combine_accumulates():
    app = KMeansApp(np.zeros((2, 2), dtype=np.float32))
    out = app.combine(0, [((1.0, 2.0), 1), ((3.0, 4.0), 2)])
    assert out == [((4.0, 6.0), 3)]


def test_km_reduce_averages():
    app = KMeansApp(np.zeros((2, 2), dtype=np.float32))
    [(key, center)] = app.reduce(1, [((4.0, 6.0), 2)])
    assert key == 1
    assert center == (2.0, 3.0)


def test_km_single_iteration_matches_numpy():
    pts_blob = datagen.kmeans_points(2000, 4, seed=9)
    centers = datagen.kmeans_centers(8, 4, seed=10)
    app = KMeansApp(centers)
    pairs = app.map_batch(app.record_format.split_records(pts_blob))
    # Direct numpy reference.
    pts = np.frombuffer(pts_blob, dtype=np.float32).reshape(-1, 4)
    d = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assign = d.argmin(axis=1)
    from collections import defaultdict
    sums = defaultdict(lambda: np.zeros(4))
    counts = defaultdict(int)
    for cid, vec in zip(assign, pts):
        sums[cid] += vec
        counts[cid] += 1
    got = {}
    for key, grp in __import__("itertools").groupby(
            sorted(pairs), key=lambda kv: kv[0]):
        vals = [v for _, v in grp]
        [(k, center)] = app.reduce(key, vals)
        got[k] = center
    for cid in counts:
        expected = sums[cid] / counts[cid]
        assert np.allclose(got[cid], expected, rtol=1e-4)


def test_km_cost_scales_with_centers():
    app_small = KMeansApp(datagen.kmeans_centers(16, 4))
    app_big = KMeansApp(datagen.kmeans_centers(256, 4))
    small = app_small.map_cost(CPU_TYPE1, 1000, 16_000)
    big = app_big.map_cost(CPU_TYPE1, 1000, 16_000)
    assert big.flops == pytest.approx(16 * small.flops)


def test_km_gpu_prefers_max_occupancy():
    app = KMeansApp(datagen.kmeans_centers(16, 4))
    assert app.preferred_threads(GTX480) == GTX480.compute_units
    assert app.preferred_threads(CPU_TYPE1) is None


def test_km_centers_validation():
    with pytest.raises(ValueError):
        KMeansApp(np.zeros(5, dtype=np.float32))


# ---------------------------------------------------------------- matmul
def test_mm_single_task_product():
    blob, a, b = datagen.matmul_tasks(16, 16, seed=11)
    app = MatMulApp(16)
    records = app.record_format.split_records(blob)
    [(key, tile)] = app.map_batch(records)
    assert key == (0, 0)
    got = np.frombuffer(tile, dtype=np.float32).reshape(16, 16)
    assert np.allclose(got, a @ b, rtol=1e-5)


def test_mm_reduce_sums_partials():
    app = MatMulApp(2)
    t1 = np.ones((2, 2), dtype=np.float32).tobytes()
    t2 = (np.ones((2, 2), dtype=np.float32) * 3).tobytes()
    [(key, total)] = app.reduce((0, 0), [t1, t2])
    assert np.allclose(np.frombuffer(total, dtype=np.float32), 4.0)


def test_mm_cost_cubic_in_tile():
    small = MatMulApp(16).map_cost(CPU_TYPE1, 1, 100)
    big = MatMulApp(32).map_cost(CPU_TYPE1, 1, 100)
    assert big.flops == pytest.approx(8 * small.flops)


def test_mm_tile_validation():
    with pytest.raises(ValueError):
        MatMulApp(0)
