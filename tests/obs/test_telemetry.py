"""Tests for the continuous-telemetry hub, exporters and validator."""

import json
import random
import tempfile
import tracemalloc

import pytest

from repro.apps import TeraSortApp, WordCountApp
from repro.apps.datagen import teragen, wiki_text
from repro.core import JobConfig, run_glasswing
from repro.hw.presets import das4_cluster
from repro.obs.report import aggregate_counters
from repro.obs.telemetry import (Histogram, Telemetry, _fmt_value,
                                 _label_key, ensure_parent_dir,
                                 openmetrics_text, render_series,
                                 validate_openmetrics, write_metrics,
                                 write_metrics_jsonl, write_openmetrics)
from repro.simt import Simulator, Timeline

try:
    from hypothesis import example, given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:    # pragma: no cover - hypothesis is an optional extra
    HAVE_HYPOTHESIS = False


# ------------------------------------------------------------- registry
def test_counter_is_monotonic():
    tele = Telemetry(Simulator(), interval=1.0)
    c = tele.counter("toy_events", link="a->b")
    c.inc(3)
    c.inc()
    assert c.value == 4
    with pytest.raises(ValueError):
        c.inc(-1)


def test_reregistration_returns_same_instrument():
    tele = Telemetry(Simulator(), interval=1.0)
    a = tele.counter("toy_events", node="n0")
    b = tele.counter("toy_events", node="n0")
    assert a is b
    assert tele.counter("toy_events", node="n1") is not a
    assert len(tele.registry) == 2


def test_kind_conflict_rejected():
    tele = Telemetry(Simulator(), interval=1.0)
    tele.counter("toy_metric")
    with pytest.raises(ValueError, match="already registered"):
        tele.gauge("toy_metric")


def test_invalid_names_rejected():
    tele = Telemetry(Simulator(), interval=1.0)
    with pytest.raises(ValueError):
        tele.gauge("bad name")
    with pytest.raises(ValueError):
        tele.gauge("ok_name", **{"0bad": "v"})


def test_gauge_probes_sum_and_capacity_sticks():
    tele = Telemetry(Simulator(), interval=1.0)
    g1 = tele.gauge("toy_depth", probe=lambda: 2, capacity=8.0, node="n0")
    g2 = tele.gauge("toy_depth", probe=lambda: 3, node="n0")
    assert g1 is g2
    assert g1.value == 5
    assert g1.capacity == 8.0


def test_histogram_buckets_cumulative():
    tele = Telemetry(Simulator(), interval=1.0)
    h = tele.histogram("toy_wait_seconds", bounds=(0.1, 1.0))
    for v in (0.05, 0.5, 0.5, 5.0):
        h.observe(v)
    assert h.count == 4
    assert h.sum == pytest.approx(6.05)
    assert h.cumulative_buckets() == [("0.1", 1), ("1.0", 3), ("+Inf", 4)]


def test_histogram_rejects_unsorted_bounds():
    tele = Telemetry(Simulator(), interval=1.0)
    with pytest.raises(ValueError):
        tele.histogram("toy_bad", bounds=(1.0, 0.5))


# ------------------------------------------------------------- sampler
def _toy_run(interval=1.0, steps=4):
    sim = Simulator()
    tele = Telemetry(sim, interval=interval)
    level = {"v": 0}
    tele.gauge("toy_depth", probe=lambda: level["v"])
    counter = tele.counter("toy_bytes")

    def driver(sim):
        yield sim.timeout(0.5)      # off-tick mutations: sampler ordering
        for _ in range(steps):      # within a tick cannot matter
            level["v"] += 1
            counter.inc(10)
            yield sim.timeout(interval)

    tele.start()
    sim.process(driver(sim))
    sim.run()
    tele.stop()
    return tele


def test_sampler_ticks_in_simulated_time():
    tele = _toy_run()
    # mutations land at 0.5, 1.5, 2.5, 3.5; the sampler gets one trailing
    # tick at 5.0 before the peek-guard retires it on the drained heap
    assert tele.ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
    pts = tele.series()[("toy_depth", ())]
    assert pts == [(1.0, 1), (2.0, 2), (3.0, 3), (4.0, 4), (5.0, 4)]


def test_sampler_final_values_and_rates():
    tele = _toy_run()
    assert tele.final_values() == {"toy_bytes": 40, "toy_depth": 4}
    # 10 bytes a simulated second: one increment between two ticks
    pts = tele.series()[("toy_bytes", ())]
    assert [(t1, (v1 - v0) / (t1 - t0))
            for (t0, v0), (t1, v1) in zip(pts, pts[1:])][0] == (2.0, 10.0)


def test_sample_dedupes_same_instant():
    sim = Simulator()
    tele = Telemetry(sim, interval=1.0)
    tele.gauge("toy_depth", probe=lambda: 1)
    tele.sample()
    tele.sample()
    assert len(tele.ticks) == 1


def test_sampler_does_not_wedge_an_empty_heap():
    """The sampler must not keep a finished (or deadlocked) sim alive."""
    sim = Simulator()
    tele = Telemetry(sim, interval=0.5)
    tele.gauge("toy_depth", probe=lambda: 0)
    tele.start()
    sim.run()                       # no job at all: must terminate
    assert tele.ticks == [0.5]


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        Telemetry(Simulator(), interval=0.0)
    with pytest.raises(ValueError):
        JobConfig(metrics_interval=-1.0)


@pytest.mark.parametrize("interval", ["nan", "inf", "-inf"])
def test_interval_must_be_finite(interval):
    """NaN used to get as far as ``Simulator.step`` ("time went
    backwards") and inf never sampled; both are named and refused."""
    with pytest.raises(ValueError, match=interval.lstrip("-")):
        Telemetry(Simulator(), interval=float(interval))
    with pytest.raises(ValueError, match="metrics.interval"):
        run_glasswing(WordCountApp(), {"wiki": b"a b\n"},
                      das4_cluster(nodes=2),
                      JobConfig(metrics_interval=float(interval)))


def test_stop_on_a_tick_still_takes_the_final_snapshot():
    """The sampler's tick at t = 1.0 runs before the event that ends the
    job at t = 1.0; ``stop()`` must bring that tick up to date, not drop
    the final values (and not add a row)."""
    sim = Simulator()
    tele = Telemetry(sim, interval=0.5)
    counter = tele.counter("x")
    tele.gauge("late_series")       # sampled: registered before the tick

    def job(sim):
        yield sim.timeout(0.75)
        yield sim.timeout(0.25)
        counter.inc(5)
        tele.gauge("after_the_tick").set(1)     # never sampled
        tele.stop()

    tele.start()
    sim.process(job(sim))
    sim.run()
    assert tele.ticks == [0.5, 1.0]
    assert tele.final_values() == {"late_series": 0, "x": 5}
    assert tele.series()[("x", ())] == [(0.5, 0), (1.0, 5)]
    assert len(tele.samples) == 4
    assert list(tele.samples)[-1]["value"] == 5
    assert "x_total 5 1.0" in openmetrics_text(tele)


# ------------------------------------------------------------- exporters
def test_jsonl_rows_sorted_and_parseable(tmp_path):
    tele = _toy_run()
    path = write_metrics_jsonl(tele, str(tmp_path / "m.jsonl"))
    lines = open(path, encoding="utf-8").read().splitlines()
    rows = [json.loads(line) for line in lines]
    assert len(rows) == len(tele.samples)
    for line, row in zip(lines, rows):
        assert line == json.dumps(row, sort_keys=True)
        assert row["metric"] in ("toy_depth", "toy_bytes")


def test_write_metrics_dispatches_on_extension(tmp_path):
    tele = _toy_run()
    om = write_metrics(tele, str(tmp_path / "m.om"))
    jl = write_metrics(tele, str(tmp_path / "m.jsonl"))
    assert open(om, encoding="utf-8").read().endswith("# EOF\n")
    assert open(jl, encoding="utf-8").read().startswith("{")


def test_openmetrics_export_validates():
    text = openmetrics_text(_toy_run())
    assert validate_openmetrics(text) > 0
    assert "toy_bytes_total" in text        # counter suffix is mandatory


def test_exports_are_deterministic(tmp_path):
    a = write_openmetrics(_toy_run(), str(tmp_path / "a.om"))
    b = write_openmetrics(_toy_run(), str(tmp_path / "b.om"))
    assert open(a, "rb").read() == open(b, "rb").read()


def test_ensure_parent_dir_creates_nested(tmp_path):
    target = tmp_path / "deep" / "er" / "file.txt"
    assert ensure_parent_dir(str(target)) == str(target)
    assert target.parent.is_dir()
    ensure_parent_dir(str(target))          # idempotent


def test_write_json_is_the_one_diff_stable_format(tmp_path):
    from repro.obs import write_json
    target = tmp_path / "deep" / "er" / "report.json"
    payload = {"b": [1, {"z": 1.5, "a": None}], "a": True, "ключ": "значение"}
    assert write_json(str(target), payload) == str(target)
    raw = target.read_bytes()
    text = raw.decode("utf-8")
    assert json.loads(text) == payload              # round trip, non-ASCII
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert text.index('"a"') < text.index('"b"')    # sorted keys
    assert text.endswith("}\n") and not text.endswith("\n\n")
    write_json(str(target), {"shorter": 1})          # overwrites, no tail
    assert json.loads(target.read_text(encoding="utf-8")) == {"shorter": 1}


# ------------------------------------------------------------- validator
def _valid_exposition():
    return ("# TYPE toy_bytes counter\n"
            'toy_bytes_total{node="n0"} 5 1.0\n'
            'toy_bytes_total{node="n0"} 9 2.0\n'
            "# EOF\n")


def test_validator_accepts_wellformed():
    assert validate_openmetrics(_valid_exposition()) == 2


@pytest.mark.parametrize("mutation,message", [
    (lambda t: t.replace("# EOF\n", ""), "EOF"),
    (lambda t: t.replace("_total", ""), "_total"),
    (lambda t: t.replace(" 9 ", " 3 "), "decreased"),
    (lambda t: "toy_other 1 0.5\n" + t, "before TYPE"),
    (lambda t: t.replace('node="n0"', 'node=n0'), "labels"),
])
def test_validator_rejects(mutation, message):
    with pytest.raises(ValueError, match=message):
        validate_openmetrics(mutation(_valid_exposition()))


def test_validator_rejects_interleaved_families():
    text = ("# TYPE a gauge\n"
            "a 1 0.0\n"
            "# TYPE b gauge\n"
            "b 1 0.0\n"
            "a 2 1.0\n"
            "# EOF\n")
    with pytest.raises(ValueError, match="interleaved"):
        validate_openmetrics(text)


def test_validator_rejects_noncumulative_histogram():
    text = ("# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5 1.0\n'
            'h_bucket{le="1.0"} 3 1.0\n'
            'h_bucket{le="+Inf"} 6 1.0\n'
            "h_count 6 1.0\n"
            "h_sum 1.5 1.0\n"
            "# EOF\n")
    with pytest.raises(ValueError, match="cumulative"):
        validate_openmetrics(text)


def test_validator_rejects_missing_inf_bucket():
    text = ("# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5 1.0\n'
            "h_count 5 1.0\n"
            "h_sum 0.5 1.0\n"
            "# EOF\n")
    with pytest.raises(ValueError, match=r"\+Inf"):
        validate_openmetrics(text)


def _valid_histogram(count="5", summed="0.7", les=("0.1", "1.0", "+Inf"),
                     drop=()):
    lines = ["# TYPE h histogram"]
    lines += [f'h_bucket{{le="{le}"}} {n} 1.0'
              for le, n in zip(les, ("2", "4", count))]
    if "_count" not in drop:
        lines.append(f"h_count {count} 1.0")
    if "_sum" not in drop:
        lines.append(f"h_sum {summed} 1.0")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def test_validator_accepts_wellformed_histogram():
    assert validate_openmetrics(_valid_histogram()) == 5


def test_validator_rejects_duplicate_bucket_bounds():
    with pytest.raises(ValueError, match="strictly increasing"):
        validate_openmetrics(_valid_histogram(les=("0.1", "0.1", "+Inf")))


def test_validator_rejects_out_of_order_bucket_bounds():
    with pytest.raises(ValueError, match="strictly increasing"):
        validate_openmetrics(_valid_histogram(les=("1.0", "0.1", "+Inf")))


def test_validator_requires_count_and_sum():
    with pytest.raises(ValueError, match="without a _count"):
        validate_openmetrics(_valid_histogram(drop=("_count",)))
    with pytest.raises(ValueError, match="without a _sum"):
        validate_openmetrics(_valid_histogram(drop=("_sum",)))


def test_validator_rejects_inf_bucket_count_mismatch():
    text = ("# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 5 1.0\n'
            "h_count 6 1.0\n"
            "h_sum 0.5 1.0\n"
            "# EOF\n")
    with pytest.raises(ValueError, match="!= _count"):
        validate_openmetrics(text)


def test_validator_rejects_decreasing_histogram_count_and_sum():
    text = ("# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 5 1.0\n'
            "h_count 5 1.0\n"
            "h_sum 2.0 1.0\n"
            'h_bucket{le="+Inf"} 4 2.0\n'
            "h_count 4 2.0\n"
            "h_sum 2.5 2.0\n"
            "# EOF\n")
    with pytest.raises(ValueError, match="_count decreased"):
        validate_openmetrics(text)
    text = ("# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 5 1.0\n'
            "h_count 5 1.0\n"
            "h_sum 2.0 1.0\n"
            'h_bucket{le="+Inf"} 6 2.0\n'
            "h_count 6 2.0\n"
            "h_sum 1.5 2.0\n"
            "# EOF\n")
    with pytest.raises(ValueError, match="_sum decreased"):
        validate_openmetrics(text)


def test_exported_wait_counter_is_conformant():
    """The new glasswing_wait_seconds counter rides the sampler into a
    conformant exposition, labelled by wait class."""
    sim = Simulator()
    tele = Telemetry(sim, interval=0.5)
    tl = Timeline()
    tl.telemetry = tele
    tl.record_wait("queue", "q", "map.kernel", "n0", 0.0, 0.25)
    tl.record_wait("shuffle-link", "nic", "net.transfer", "0->1", 0.0, 0.5)
    tele.sample()
    text = openmetrics_text(tele)
    assert validate_openmetrics(text) == 2
    assert 'glasswing_wait_seconds_total{class="queue"} 0.25' in text
    assert 'class="shuffle-link"' in text


# -------------------------------------------------- end-to-end invariance
def _case(name):
    if name == "wordcount":
        return (WordCountApp(), {"wiki": wiki_text(150_000, seed=7)},
                dict(chunk_size=32_768))
    data = teragen(1500, seed=8)
    return (TeraSortApp.from_input(data), {"tera": data},
            dict(chunk_size=50_000, output_replication=1))


@pytest.mark.parametrize("case", ["wordcount", "terasort"])
def test_sampling_does_not_perturb_the_simulation(case):
    """Differential: enabling telemetry changes no time or byte counter."""
    app, inputs, cfg = _case(case)
    base = run_glasswing(app, inputs, das4_cluster(nodes=2),
                         JobConfig(**cfg))
    samp = run_glasswing(app, inputs, das4_cluster(nodes=2),
                         JobConfig(metrics_interval=0.0005, **cfg))
    assert base.telemetry is None
    assert samp.telemetry is not None and samp.telemetry.ticks
    assert samp.job_time == base.job_time
    assert (samp.map_time, samp.merge_delay, samp.reduce_time) == \
           (base.map_time, base.merge_delay, base.reduce_time)
    assert samp.stats == base.stats
    assert aggregate_counters(samp.timeline) == \
           aggregate_counters(base.timeline)
    assert samp.sorted_output() == base.sorted_output()


@pytest.mark.parametrize("case", ["wordcount", "terasort"])
def test_sampled_exports_are_byte_identical_across_runs(case, tmp_path):
    paths = []
    for i in range(2):
        app, inputs, cfg = _case(case)
        res = run_glasswing(app, inputs, das4_cluster(nodes=2),
                            JobConfig(metrics_interval=0.001, **cfg))
        om = write_openmetrics(res.telemetry,
                               str(tmp_path / f"{i}.om"))
        jl = write_metrics_jsonl(res.telemetry,
                                 str(tmp_path / f"{i}.jsonl"))
        paths.append((om, jl))
    (om1, jl1), (om2, jl2) = paths
    assert open(om1, "rb").read() == open(om2, "rb").read()
    assert open(jl1, "rb").read() == open(jl2, "rb").read()
    assert validate_openmetrics(open(om1, encoding="utf-8").read()) > 0


def test_job_telemetry_covers_every_layer():
    app, inputs, cfg = _case("wordcount")
    res = run_glasswing(app, inputs, das4_cluster(nodes=2),
                        JobConfig(metrics_interval=0.001, **cfg))
    names = {m.name for m in res.telemetry.registry.sorted_metrics()}
    assert {"glasswing_pipeline_queue_depth",
            "glasswing_pipeline_slots_in_use",
            "glasswing_pipeline_slot_waiters",
            "glasswing_pipeline_slot_wait_seconds",
            "glasswing_pipeline_queue_wait_seconds",
            "glasswing_merge_cache_bytes",
            "glasswing_merge_backlog_tasks",
            "glasswing_merge_queue_depth",
            "glasswing_shuffle_inflight_bytes",
            "glasswing_shuffle_bytes",
            "glasswing_node_cpu_busy_fraction",
            "glasswing_node_cpu_demand_threads",
            "glasswing_node_disk_busy",
            "glasswing_node_disk_waiters"} <= names
    # cumulative shuffle counters agree with the network's own ledger
    shuffled = sum(
        m.value for m in res.telemetry.registry.sorted_metrics()
        if m.name == "glasswing_shuffle_bytes")
    assert shuffled == res.stats["network_bytes"]


def test_report_folds_in_telemetry():
    app, inputs, cfg = _case("wordcount")
    res = run_glasswing(app, inputs, das4_cluster(nodes=2),
                        JobConfig(metrics_interval=0.001, **cfg))
    report = res.to_report()
    tele = report["telemetry"]
    assert tele["interval_s"] == 0.001
    assert tele["ticks"] == len(res.telemetry.ticks) > 0
    assert tele["series"] == len(res.telemetry.registry)
    assert tele["final"]
    sat = report["phases"]["map"]["saturation"]
    assert sat and all(0.0 <= e["mean_level"] <= e["peak_level"] + 1e-12
                       for e in sat)
    assert json.dumps(report, sort_keys=True)   # JSON-serialisable

    plain = run_glasswing(app, inputs, das4_cluster(nodes=2),
                          JobConfig(**cfg)).to_report()
    assert plain["telemetry"] is None
    assert plain["phases"]["map"]["saturation"] == []


# -------------------------------------- queries and rows tell one story
# series() / final_values() / rates() read the columns and ``samples``
# reads them back as rows; each query must answer what a full scan of
# the rows answers, whenever it is asked.

def scan_series(rows):
    """The reference: ``Telemetry.series`` as the full scan it used to be."""
    out = {}
    for row in rows:
        if row["type"] == "histogram":
            continue
        labels = tuple(sorted((k, str(v)) for k, v in row["labels"].items()))
        out.setdefault((row["metric"], labels), []).append(
            (row["t"], row["value"]))
    return out


def assert_series_queries_match_a_scan(tele, rows=None):
    scanned = scan_series(tele.samples if rows is None else rows)
    got = tele.series()
    assert got == scanned
    assert list(got) == list(scanned)           # first-seen order too
    assert tele.final_values() == {
        render_series(name, labels): pts[-1][1]
        for (name, labels), pts in sorted(scanned.items())}
    # fresh lists each time: what a caller does to them stays with them
    for pts in got.values():
        pts.clear()


def check_series_index_is_invisible(seed):
    """Interleave sampling, mid-run registration and queries."""
    rng = random.Random(seed)
    sim = Simulator()
    tele = Telemetry(sim, interval=1.0)
    level = {"v": 0.0}
    tele.gauge("toy_depth", probe=lambda: level["v"], node="n0")
    counters = [tele.counter("toy_bytes", link="0->1")]
    assert_series_queries_match_a_scan(tele)    # no rows yet
    for step in range(rng.randrange(1, 40)):
        op = rng.randrange(6)
        if op == 0:                             # a series registered mid-run
            counters.append(tele.counter("toy_bytes", link=f"0->{step}"))
        elif op == 1:
            tele.gauge("toy_level", node=f"n{step % 3}",
                       job=step).set(rng.random())
        elif op == 2:
            tele.histogram("toy_wait_seconds").observe(rng.random())
        elif op == 3:
            assert_series_queries_match_a_scan(tele)
        else:                                   # the clock moves, then a tick
            sim.now += rng.choice((0.0, 0.5, 1.0))
            level["v"] = rng.random()
            rng.choice(counters).inc(rng.randrange(100))
            tele.sample()
    assert_series_queries_match_a_scan(tele)


if HAVE_HYPOTHESIS:

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**20))
    def test_series_index_is_invisible(seed):
        check_series_index_is_invisible(seed)

else:    # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parametrize("seed", range(12))
    def test_series_index_is_invisible(seed):
        check_series_index_is_invisible(seed)


def test_sample_after_a_first_query_is_seen():
    """A query between two ticks holds nothing back from the next one,
    with a series registered between the two ticks."""
    sim = Simulator()
    tele = Telemetry(sim, interval=1.0)
    counter = tele.counter("toy_bytes")
    sim.now = 1.0
    tele.sample()
    assert tele.series() == {("toy_bytes", ()): [(1.0, 0)]}
    counter.inc(8)
    tele.gauge("toy_depth", node="n1").set(3)
    sim.now = 2.0
    tele.sample()
    assert tele.series() == {("toy_bytes", ()): [(1.0, 0), (2.0, 8)],
                             ("toy_depth", (("node", "n1"),)): [(2.0, 3)]}
    assert tele.final_values() == {"toy_bytes": 8, 'toy_depth{node="n1"}': 3}


def test_sorted_metrics_follows_registration():
    """The export order is kept between ticks, not frozen: a series
    registered later sorts into place, and the list handed out is the
    caller's own."""
    tele = Telemetry(Simulator(), interval=1.0)
    tele.counter("toy_m", node="n1")
    assert [m.series() for m in tele.registry.sorted_metrics()] == \
        ['toy_m{node="n1"}']
    tele.registry.sorted_metrics().clear()
    tele.counter("toy_m", node="n0")
    tele.gauge("toy_a")
    assert [m.series() for m in tele.registry.sorted_metrics()] == \
        ["toy_a", 'toy_m{node="n0"}', 'toy_m{node="n1"}']


def test_rows_share_their_series_labels_and_label_dict_is_a_copy():
    sim = Simulator()
    tele = Telemetry(sim, interval=1.0)
    gauge = tele.gauge("toy_depth", node="n0")
    for t in (1.0, 2.0):
        sim.now = t
        tele.sample()
    first, second = tele.samples
    assert first["labels"] == {"node": "n0"}
    assert first["labels"] is second["labels"]      # shared: read-only
    gauge.label_dict["node"] = "elsewhere"          # an outside caller's copy
    assert first["labels"] == {"node": "n0"}
    assert gauge.label_dict == {"node": "n0"}


def test_single_probe_gauge_reads_like_a_sum_of_one():
    """One probe is called directly; the value is still what summing gave
    (a bool probe reads 1, not True — the exporters tell them apart)."""
    tele = Telemetry(Simulator(), interval=1.0)
    flag = tele.gauge("toy_flag", probe=lambda: True)
    assert flag.value == 1 and type(flag.value) is int
    assert tele.gauge("toy_frac", probe=lambda: 0.25).value == 0.25
    assert tele.gauge("toy_unprobed").value == 0


# ------------------------------------------ columns against the row log
# The reference model: the dict-row log ``Telemetry`` used to keep —
# every registered series probed at every tick, one dict per sample —
# and the queries and exports as scans of it.  The hub stores columns
# and stops feeding a retired gauge; nothing it answers may differ.

class RowLog:
    def __init__(self, tele):
        self.tele, self.rows, self.ticks = tele, [], []

    def sample(self):
        t = self.tele.sim.now
        if self.ticks and t <= self.ticks[-1]:
            del self.rows[self.tick_start:]     # the tick is taken again
        else:
            self.ticks.append(t)
            self.tick_start = len(self.rows)
            self.metrics = self.tele.registry.sorted_metrics()
        for metric in self.metrics:
            row = {"t": t, "metric": metric.name, "type": metric.kind,
                   "labels": metric.label_dict}
            if isinstance(metric, Histogram):
                row["count"] = metric.count
                row["sum"] = metric.sum
                row["buckets"] = dict(metric.cumulative_buckets())
            else:
                row["value"] = metric.value
            self.rows.append(row)

    def openmetrics(self):
        registry = self.tele.registry
        by_family = {}
        for row in self.rows:
            by_family.setdefault(row["metric"], []).append(row)
        lines = []
        for family in sorted(by_family):
            kind = registry.kind_of(family)
            lines.append(f"# TYPE {family} {kind}")
            if registry.help_of(family):
                lines.append(f"# HELP {family} {registry.help_of(family)}")
            for row in by_family[family]:
                labels, ts = _label_key(row["labels"]), _fmt_value(row["t"])
                if kind == "histogram":
                    for le, n in sorted(row["buckets"].items(),
                                        key=lambda kv: float(kv[0])):
                        lines.append(render_series(
                            family + "_bucket",
                            _label_key(dict(row["labels"], le=le)))
                            + f" {n} {ts}")
                    lines.append(render_series(family + "_count", labels)
                                 + f" {row['count']} {ts}")
                    lines.append(render_series(family + "_sum", labels)
                                 + f" {_fmt_value(row['sum'])} {ts}")
                else:
                    name = family + ("_total" if kind == "counter" else "")
                    lines.append(render_series(name, labels)
                                 + f" {_fmt_value(row['value'])} {ts}")
        return "\n".join(lines + ["# EOF"]) + "\n"


def assert_hub_matches_the_row_log(tele, log):
    rows = log.rows
    assert list(tele.samples) == rows
    assert len(tele.samples) == len(rows)
    assert_series_queries_match_a_scan(tele, rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_metrics_jsonl(tele, f"{tmp}/m.jsonl")
        assert open(path, encoding="utf-8").read() == "".join(
            json.dumps(row, sort_keys=True) + "\n" for row in rows)
    assert openmetrics_text(tele) == log.openmetrics()
    validate_openmetrics(openmetrics_text(tele))


def drive_hub_and_row_log(ops):
    """Run one schedule against both.  A "job" is what the engine's are:
    a registrant of probed gauges under its name whose state nobody
    moves once it has finished; a name may be registered again, while
    its last holder is still running or after."""
    sim = Simulator()
    tele = Telemetry(sim, interval=1.0)
    log = RowLog(tele)
    running = {}                    # job name -> [(gauges, state), ...]

    def tick():
        tele.sample()
        log.sample()

    for op, who, amount in ops:
        if op == "inc":
            tele.counter("toy_bytes", help="bytes", link=who).inc(amount)
        elif op == "set":
            tele.gauge("toy_level", node=who).set(amount / 4)
        elif op == "observe":
            tele.histogram("toy_wait_seconds",
                           bounds=(1.0, 4.0)).observe(amount / 2)
        elif op == "start":
            state = {"members": amount, "up": True}
            gauges = [
                tele.gauge("toy_members", capacity=16.0, job=who,
                           probe=lambda state=state: state["members"]),
                tele.gauge("toy_up", job=who,
                           probe=lambda state=state: state["up"])]
            running.setdefault(who, []).append((gauges, state))
        elif op == "move" and running.get(who):
            running[who][-1][1]["members"] += amount
        elif op == "finish" and running.get(who):
            gauges, state = running[who].pop()
            state["up"] = False
            tele.retire(gauges)
        elif op == "tick":
            sim.now += amount / 2           # 0: the instant is taken again
            tick()
        elif op == "check":
            assert_hub_matches_the_row_log(tele, log)
    tele.stop()
    log.sample()
    assert_hub_matches_the_row_log(tele, log)
    return tele


def test_a_finished_job_is_not_fed_and_a_namesake_revives_it():
    tele = drive_hub_and_row_log([
        ("start", 0, 4), ("tick", 0, 2), ("move", 0, 1), ("finish", 0, 0),
        ("tick", 0, 2), ("tick", 0, 2), ("tick", 0, 0), ("check", 0, 0),
        ("start", 0, 7), ("tick", 0, 2), ("move", 0, 2), ("tick", 0, 2),
        ("finish", 0, 0), ("tick", 0, 2), ("tick", 0, 2)])
    assert tele.series()[("toy_members", (("job", "0"),))] == [
        (1.0, 4), (2.0, 5), (3.0, 5), (4.0, 12), (5.0, 14), (6.0, 14),
        (7.0, 14)]
    members = tele.registry.gauge("toy_members", job=0)
    assert len(members._values) == 6        # seven ticks, the last not fed


def test_a_gauge_two_running_jobs_share_outlives_the_first():
    tele = drive_hub_and_row_log([
        ("start", 1, 3), ("start", 1, 2), ("tick", 0, 2), ("finish", 1, 0),
        ("tick", 0, 2), ("move", 1, 4), ("tick", 0, 2), ("finish", 1, 0),
        ("tick", 0, 2), ("tick", 0, 2)])
    assert tele.series()[("toy_members", (("job", "1"),))] == [
        (1.0, 5), (2.0, 5), (3.0, 9), (4.0, 9), (5.0, 9)]
    assert len(tele.registry.gauge("toy_members", job=1)._values) == 4


#: a job that starts and finishes between two samples of one instant
RETIRED_BEFORE_FIRST_TICK = [
    ("tick", 0, 0), ("start", 0, 1), ("finish", 0, 1), ("tick", 0, 0),
    ("tick", 0, 1)]


def test_a_job_retired_before_its_first_tick_is_sampled_once():
    tele = drive_hub_and_row_log(RETIRED_BEFORE_FIRST_TICK)
    assert tele.series()[("toy_up", (("job", "0"),))] == [(0.5, 0)]
    assert tele.final_values()['toy_members{job="0"}'] == 1
    assert len(tele.registry.gauge("toy_members", job=0)._values) == 1


if HAVE_HYPOTHESIS:

    _OPS = st.one_of(
        st.tuples(st.sampled_from(["inc", "set", "observe"]),
                  st.integers(0, 2), st.integers(0, 9)),
        st.tuples(st.sampled_from(["start", "move", "finish"]),
                  st.integers(0, 1), st.integers(1, 9)),
        st.tuples(st.just("tick"), st.just(0), st.integers(0, 2)),
        st.tuples(st.just("check"), st.just(0), st.just(0)))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_OPS, max_size=60))
    @example(RETIRED_BEFORE_FIRST_TICK)
    def test_columns_answer_what_the_row_log_answers(ops):
        drive_hub_and_row_log(ops)


def test_len_of_samples_builds_no_row():
    """perf's verifier takes ``len(samples)`` on every rep: arithmetic,
    not 200,000 dicts."""
    sim = Simulator()
    tele = Telemetry(sim, interval=1.0)
    for i in range(200):
        tele.counter("toy_bytes", link=i)
    for tick in range(1, 1001):
        sim.now = float(tick)
        tele.sample()
    tracemalloc.start()
    try:
        n = len(tele.samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n == 200_000
    assert peak < 64 * 1024
    assert tele.ticks[-1] == 1000.0
