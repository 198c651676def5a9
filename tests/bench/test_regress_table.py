"""``BASELINES`` tested as a table: every row against its committed file.

No simulation runs here — ``measure`` is stubbed to hand back the
recorded point (or a doctored copy), so a typo in a row, a metric a file
does not record, or a gate that stopped tripping fails in milliseconds
instead of in CI's 75-second replay.
"""

import copy
import functools
import inspect
import json
from dataclasses import replace

import pytest

from repro.bench import dag, elastic, scaling, service
from repro.bench.regress import BASELINES, _metric_of, main, replay
from repro.core.costs import DEFAULT_HOST_COSTS


def recorded_points(row):
    with open(row.path, encoding="utf-8") as fh:
        return json.load(fh)[row.points_key]


def gated(row, point):
    """Every (kind, tolerance) the gate holds ``point`` to, by metric."""
    return {**row.tolerances, **row.extra.get(row.label(point)["app"], {})}


def stub_measure(monkeypatch, name, measure=lambda point, costs: point):
    monkeypatch.setitem(BASELINES, name,
                        replace(BASELINES[name], measure=measure))


#: one case per baseline x recorded point x gated metric
GATED = [(name, index, metric)
         for name, row in BASELINES.items()
         for index, point in enumerate(recorded_points(row))
         for metric in sorted(gated(row, point))]


def set_metric(point, metric, value):
    if metric == "overlap_factor":
        point["map_pipeline"]["overlap_factor"] = value
    else:
        point[metric] = value


# ---------------------------------------------------------------- (i) rows
@pytest.mark.parametrize("name", list(BASELINES))
def test_row_resolves_on_its_committed_file(name):
    row = BASELINES[name]
    points = recorded_points(row)
    assert points, f"{row.path} records no {row.points_key}"
    for point in points:
        label = row.label(point)
        assert set(label) == {"app", "nodes"}
        for metric, (kind, tol) in gated(row, point).items():
            assert kind in ("rel", "abs") and tol >= 0, (metric, kind, tol)
            float(_metric_of(point, metric))    # KeyError: a typo in the row


@pytest.mark.parametrize("name", list(BASELINES))
def test_measure_resolves_on_its_committed_file(name, monkeypatch):
    """The row's real ``measure`` with the simulation behind it stubbed.

    A ``dag:`` / ``elastic:`` point is replayed from the keyword
    parameters of its function, so those names are the file's schema: a
    renamed or added keyword (or a typo in a row's lambda) is a KeyError
    / TypeError here, not exit 2 in CI's replay.
    """
    calls = []

    def stubbed(fn):
        @functools.wraps(fn)        # inspect.signature still sees fn's
        def point_fn(*args, **kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            calls.append(bound.arguments)
            return {}
        return point_fn

    monkeypatch.setattr(scaling, "sweep_point", stubbed(scaling.sweep_point))
    monkeypatch.setattr(service, "service_point",
                        stubbed(service.service_point))
    labelled = {"dag": dict(dag.POINTS), "elastic": dict(elastic.POINTS)}
    for module in (dag, elastic):
        for app, fn in module.POINTS.items():
            monkeypatch.setitem(module.POINTS, app, stubbed(fn))

    row = BASELINES[name]
    points = recorded_points(row)
    for point in points:
        assert row.measure(point, DEFAULT_HOST_COSTS) == {}
    assert len(calls) == len(points)
    for point, arguments in zip(points, calls):
        assert arguments.pop("costs") is DEFAULT_HOST_COSTS
        if name in labelled:
            # the whole recorded shape, no parameter left at its default
            fn = labelled[name][point["app"]]
            shape = set(inspect.signature(fn).parameters) - {"costs"}
            assert shape and set(arguments) == shape
            assert all(arguments[key] == point[key] for key in shape)


@pytest.mark.parametrize("name", list(BASELINES))
def test_committed_file_is_in_the_one_json_format(name, tmp_path):
    """Regenerating a baseline changes numbers, never formatting."""
    from repro.obs import write_json
    path = BASELINES[name].path
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    rewritten = write_json(str(tmp_path / path), payload)
    assert open(rewritten, "rb").read() == open(path, "rb").read()


def test_every_extra_names_a_recorded_point():
    for name, row in BASELINES.items():
        apps = {row.label(p)["app"] for p in recorded_points(row)}
        assert set(row.extra) <= apps, (name, set(row.extra) - apps)


# -------------------------------------------------------------- (ii) replay
@pytest.mark.parametrize("name", list(BASELINES))
def test_replay_of_the_recorded_points_is_ok(name, monkeypatch):
    stub_measure(monkeypatch, name)
    result = replay(name)
    assert result["ok"] and not result["failures"]
    assert result["explanations"] == []
    assert result["points"] == len(recorded_points(BASELINES[name]))
    assert all(r["deviation"] == 0.0 for r in result["comparisons"])


@pytest.mark.parametrize("name,index,metric", GATED)
def test_doctoring_one_metric_flips_exactly_its_row(name, index, metric,
                                                    monkeypatch):
    row = BASELINES[name]
    target = recorded_points(row)[index]
    kind, tol = gated(row, target)[metric]
    old = float(_metric_of(target, metric))
    # just past the tolerance; an exact metric trips on +1
    bump = 1.0 if tol == 0 else (
        3 * tol * max(abs(old), 1.0) if kind == "rel" else 3 * tol)

    calls = iter(range(len(recorded_points(row))))

    def measure(point, costs):      # replay measures in recorded order
        if next(calls) != index:
            return point
        doctored = copy.deepcopy(point)
        set_metric(doctored, metric, old + bump)
        return doctored

    stub_measure(monkeypatch, name, measure)
    result = replay(name)
    assert not result["ok"]
    failed = [(r["app"], r["nodes"], r["metric"])
              for r in result["failures"]]
    shown = row.label(target)
    assert failed == [(shown["app"], shown["nodes"], metric)]
    # the uniform rule: every drifted point gets exactly one explanation
    assert [(e["app"], e["nodes"]) for e in result["explanations"]] == \
        [(shown["app"], shown["nodes"])]


@pytest.mark.parametrize("name,metric", [
    ("scaling", "network_bytes"), ("service", "completed"),
    ("dag", "cache_hit_bytes"), ("dag", "identical_output"),
    ("elastic", "identical_output"), ("elastic", "joined")])
@pytest.mark.parametrize("delta", [-1, +1])
def test_exact_metrics_trip_on_plus_or_minus_one(name, metric, delta,
                                                 monkeypatch):
    row = BASELINES[name]
    index = next(i for i, p in enumerate(recorded_points(row))
                 if metric in gated(row, p))
    calls = iter(range(len(recorded_points(row))))

    def measure(point, costs):
        measured = copy.deepcopy(point)
        if next(calls) == index:
            set_metric(measured, metric,
                       float(_metric_of(point, metric)) + delta)
        return measured

    stub_measure(monkeypatch, name, measure)
    result = replay(name)
    assert [r["metric"] for r in result["failures"]] == [metric]


def test_unknown_labelled_points_are_rejected(tmp_path):
    for name in ("dag", "elastic"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(
            {"points": [{"app": f"{name}:mystery", "nodes": 4}]}))
        with pytest.raises(ValueError, match=f"unknown {name} point"):
            replay(name, str(path))


def test_file_without_points_is_rejected(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"points": []}))
    with pytest.raises(ValueError, match="no baseline points"):
        replay("service", str(path))


# --------------------------------------------------------- (iv) one payload
def test_cli_payload_is_nested_even_when_only_scaling_ran(tmp_path, capsys,
                                                          monkeypatch):
    stub_measure(monkeypatch, "scaling")
    out = tmp_path / "only-scaling.json"
    rc = main(["--nodes", "1", "--skip-service", "--skip-dag",
               "--skip-elastic", "--json-out", str(out)])
    assert rc == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert set(payload) == {"ok", "scaling"}
    assert payload["ok"] is True and payload["scaling"]["ok"] is True


def test_cli_payload_has_one_entry_per_replayed_baseline(tmp_path, capsys,
                                                         monkeypatch):
    for name in BASELINES:
        stub_measure(monkeypatch, name)
    out = tmp_path / "all.json"
    assert main(["--json", str(out)]) == 0
    stdout = capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert set(payload) == {"ok", *BASELINES}
    for name, row in BASELINES.items():
        assert payload[name]["baseline_path"] == row.path
        assert "explanations" in payload[name]
        assert f"replayed against {row.path}: PASS" in stdout
