"""Tests for the JobConfig configuration API."""

import pytest

from repro.core.config import JobConfig
from repro.hw.specs import DeviceKind


def test_defaults_are_valid():
    cfg = JobConfig()
    assert cfg.buffering == 2
    assert cfg.device is DeviceKind.CPU
    assert cfg.collector == "hash"
    assert cfg.use_combiner


def test_buffering_levels():
    for level in (1, 2, 3):
        assert JobConfig(buffering=level).buffering == level
    with pytest.raises(ValueError):
        JobConfig(buffering=0)
    with pytest.raises(ValueError):
        JobConfig(buffering=4)


def test_combiner_requires_hash_collector():
    JobConfig(collector="buffer", use_combiner=False)  # fine
    with pytest.raises(ValueError):
        JobConfig(collector="buffer", use_combiner=True)


def test_unknown_collector_and_storage():
    with pytest.raises(ValueError):
        JobConfig(collector="magic")
    with pytest.raises(ValueError):
        JobConfig(storage="tape")


def test_positive_int_knobs_validated():
    for field in ("partitions_per_node", "partitioner_threads",
                  "concurrent_keys", "keys_per_thread",
                  "reduce_threads_per_key", "output_replication"):
        with pytest.raises(ValueError):
            JobConfig(**{field: 0})


def test_merger_threads_defaults_to_partitions():
    assert JobConfig(partitions_per_node=5).effective_merger_threads == 5
    assert JobConfig(partitions_per_node=5,
                     merger_threads=2).effective_merger_threads == 2


def test_with_override():
    cfg = JobConfig()
    cfg2 = cfg.with_(buffering=3, partitions_per_node=16)
    assert cfg2.buffering == 3
    assert cfg2.partitions_per_node == 16
    assert cfg.buffering == 2  # original untouched


def test_chunk_size_validation():
    with pytest.raises(ValueError):
        JobConfig(chunk_size=0)


@pytest.mark.parametrize("interval", [float("nan"), float("inf"), 0.0, -1.0])
def test_metrics_interval_follows_the_sampler_rule(interval):
    """The config refuses every interval the sampler would: NaN sends
    the sampler backwards in time and inf never ticks."""
    with pytest.raises(ValueError, match="metrics.interval"):
        JobConfig(metrics_interval=interval)
