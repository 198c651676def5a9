"""Shared fixtures and comparison helpers for the test suite."""

import numpy as np
import pytest

from repro.baselines.reference import canonical_output


def _values_close(a, b, rtol=1e-4):
    """Tolerant value comparison: floats (scalars/tuples/bytes-encoded
    float32 blobs) may differ in the last bits across engines because
    reduction order differs."""
    if isinstance(a, float) or isinstance(b, float):
        return np.isclose(a, b, rtol=rtol)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(
            _values_close(x, y, rtol) for x, y in zip(a, b))
    if isinstance(a, bytes) and isinstance(b, bytes) and len(a) == len(b) \
            and len(a) % 4 == 0 and a != b:
        fa = np.frombuffer(a, dtype=np.float32)
        fb = np.frombuffer(b, dtype=np.float32)
        return np.allclose(fa, fb, rtol=rtol)
    return a == b


def assert_outputs_match(got_pairs, ref_pairs, rtol=1e-4):
    """Assert two engines produced equivalent output (keys exact, values
    numerically close)."""
    got = canonical_output(list(got_pairs))
    ref = canonical_output(list(ref_pairs))
    assert len(got) == len(ref), f"{len(got)} pairs vs {len(ref)}"
    for (gk, gv), (rk, rv) in zip(got, ref):
        assert gk == rk, f"key mismatch: {gk!r} != {rk!r}"
        assert _values_close(gv, rv, rtol), f"value mismatch for {gk!r}"


@pytest.fixture
def outputs_match():
    return assert_outputs_match


@pytest.fixture
def retired_gauges_hold(monkeypatch):
    """Run the test with telemetry on in every session it builds and,
    when it is over, probe each gauge its hub had stopped probing.

    A finished job's membership gauges are sampled once more and then
    read from their stored final value; that is only right if nothing
    moves what their probes read after ``job_done`` — checked here in
    the suites where membership does change.
    """
    from repro.core.engine import ClusterSession

    hubs = []
    plain_init = ClusterSession.__init__

    def sampled_init(self, cluster_spec, metrics_interval=None):
        plain_init(self, cluster_spec, metrics_interval or 5e-4)
        hubs.append(self.telemetry)

    monkeypatch.setattr(ClusterSession, "__init__", sampled_init)
    yield hubs
    for hub in hubs:
        hub.stop()      # a DAG runner left open still owes the final sample
        for gauge in hub._retired:
            assert gauge.value == gauge._values[-1], gauge
