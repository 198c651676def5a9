"""The watermark trigger seen acting: :class:`ElasticController` scales a
real job out and in through the one scale rule of
:mod:`repro.core.membership`, and the output stays the static run's.

The controller only samples during the map/shuffle window, so the input
is large enough (8 MiB, 32 splits) for that window to span several
sampling intervals; the placement is pinned because which samples cross
a watermark depends on the schedule.
"""

import pytest

from repro.apps import WordCountApp
from repro.apps.datagen import wiki_text
from repro.core import JobConfig, run_glasswing
from repro.core.membership import ElasticPolicy
from repro.hw.presets import das4_cluster
from repro.hw.specs import DeviceKind

MiB = 1 << 20


@pytest.fixture(scope="module")
def inputs():
    return {"corpus": wiki_text(8 * MiB, seed=42)}


def run(inputs, elastic=None, gpu=False, **overrides):
    config = JobConfig(chunk_size=256 * 1024, scheduler="static-affinity",
                       **overrides)
    return run_glasswing(WordCountApp(), inputs,
                         das4_cluster(nodes=4, gpu=gpu), config,
                         elastic=elastic)


def test_saturated_half_cluster_scales_out_to_the_lowest_standby(inputs):
    static = run(inputs)
    result = run(inputs, ElasticPolicy(2, 4), active_nodes=2)
    assert result.stats["elastic_scale_outs"] == 1
    assert result.stats["elastic_scale_ins"] == 0
    assert result.stats["joined_nodes"] == [2]
    assert result.sorted_output() == static.sorted_output()


def test_idle_gpu_cluster_scales_in_its_highest_node(inputs):
    static = run(inputs, gpu=True, device=DeviceKind.GPU)
    result = run(inputs, ElasticPolicy(1, 4), gpu=True,
                 device=DeviceKind.GPU)
    assert result.stats["elastic_scale_ins"] == 1
    assert result.stats["elastic_scale_outs"] == 0
    assert result.stats["departed_nodes"] == [3]
    assert result.sorted_output() == static.sorted_output()
