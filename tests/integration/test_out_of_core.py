"""Out-of-core behaviour: the paper's central capability claim.

"Glasswing was designed to be scalable and tackle massive out-of-core
dataset sizes" — intermediate data larger than the in-memory cache must
spill, merge on disk and still reduce correctly.
"""

import pytest

from repro.apps import TeraSortApp, WordCountApp
from repro.apps.datagen import teragen, wiki_text
from repro.baselines.reference import run_reference
from repro.core import JobConfig, run_glasswing
from repro.hw.presets import das4_cluster
from repro.storage.records import NO_COMPRESSION

from tests.conftest import assert_outputs_match


def test_wordcount_spills_and_stays_correct():
    inputs = {"wiki": wiki_text(1_500_000, seed=91)}
    ref = run_reference(WordCountApp(), inputs)
    res = run_glasswing(
        WordCountApp(), inputs, das4_cluster(nodes=2),
        JobConfig(chunk_size=65_536, cache_threshold=50_000,
                  use_combiner=False, storage="local"))
    assert_outputs_match(res.output_pairs(), ref)
    spills = res.timeline.by_category("merge.flush")
    assert spills, "cache threshold never triggered a flush"


def test_terasort_out_of_core_everywhere():
    """TS with input, intermediate and output all beyond the cache."""
    data = teragen(40_000, seed=92)  # 4 MB
    app = TeraSortApp.from_input(data, sample_every=199)
    res = run_glasswing(
        app, {"t": data}, das4_cluster(nodes=3),
        JobConfig(chunk_size=100_000, cache_threshold=64_000,
                  output_replication=1, compression=NO_COMPRESSION,
                  storage="local"))
    out = list(res.output_pairs())
    keys = [k for k, _ in out]
    assert len(out) == 40_000
    assert keys == sorted(keys)
    assert res.timeline.by_category("merge.flush")
    # The continuous merger kept file counts bounded: compactions ran.
    assert res.timeline.by_category("merge.compact")
    # Every value still pairs with its own key after the flushes and
    # compactions: the output is the reference's, pair for pair (keys are
    # bytes, so natural order is key order).
    assert res.sorted_output() == sorted(run_reference(app, {"t": data}))


def test_file_count_bounded_by_continuous_merging():
    inputs = {"wiki": wiki_text(1_000_000, seed=93)}
    res = run_glasswing(
        WordCountApp(), inputs, das4_cluster(nodes=1),
        JobConfig(chunk_size=32_768, cache_threshold=30_000,
                  max_intermediate_files=2, partitions_per_node=2,
                  use_combiner=False, storage="local"))
    compacts = res.timeline.by_category("merge.compact")
    flushes = res.timeline.by_category("merge.flush")
    assert len(flushes) > 2
    assert compacts, "many flushes but the continuous merger never ran"


def test_spilled_and_in_memory_runs_agree():
    """Same job with and without spilling produces identical output."""
    inputs = {"wiki": wiki_text(800_000, seed=94)}
    base = JobConfig(chunk_size=65_536, use_combiner=False, storage="local")
    spilled = run_glasswing(WordCountApp(), inputs, das4_cluster(nodes=2),
                            base.with_(cache_threshold=20_000))
    in_mem = run_glasswing(WordCountApp(), inputs, das4_cluster(nodes=2),
                           base.with_(cache_threshold=1 << 30))
    assert_outputs_match(spilled.output_pairs(), in_mem.output_pairs())
    assert spilled.job_time > in_mem.job_time  # spilling costs real time
