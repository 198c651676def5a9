"""A deterministic cost gate for the shuffle: events, not a wall clock.

Glasswing pushes every split's partitions to every peer, so a WordCount
over N nodes makes O(N^2) small transfers and the simulator's cost is
its event count.  An uncontended transfer costs two events (TX end and
delivery) and a free NIC or fabric token none; a change that gives a
transfer back its per-phase events shows here as a count, with the
simulated job unchanged to the last bit.
"""

from repro.apps import WordCountApp
from repro.apps.datagen import wiki_text
from repro.core import JobConfig, run_glasswing
from repro.hw.presets import das4_cluster
from repro.simt import Simulator

#: ``Simulator.step`` calls of the 64-node job.  Per-phase waits (six
#: events a transfer) took 38,440; the receiver calendar took 21,778, and
#: taking a free disk-channel or device-engine token without an event
#: brought it to 21,345, and pushing on one hardware thread per peer to
#: 20,634.
MAX_EVENTS = 24_000


def test_64_node_wordcount_event_count(monkeypatch):
    steps = 0
    step = Simulator.step

    def counted(sim):
        nonlocal steps
        steps += 1
        step(sim)

    monkeypatch.setattr(Simulator, "step", counted)
    result = run_glasswing(
        WordCountApp(), {"wiki": wiki_text(64 * 1024, seed=42)},
        das4_cluster(nodes=64),
        JobConfig(chunk_size=512, partitions_per_node=1,
                  scheduler="static-affinity"))
    assert steps <= MAX_EVENTS
    assert result.job_time == 0.013160126733333347
    assert len(result.timeline.spans) == 9275
