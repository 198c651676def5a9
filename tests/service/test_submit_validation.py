"""A submission the cluster cannot run is refused at ``submit()``.

Raised any later — at dispatch, inside the event loop — the same error
comes out of ``server.run()`` and takes every other tenant's job down
with it.
"""

import pytest

from repro.apps import WordCountApp
from repro.apps.datagen import wiki_text
from repro.core import JobConfig, run_glasswing
from repro.core.faults import FaultPlan, NodeCrash, NodeJoin, NodeLeave
from repro.hw.presets import das4_cluster
from repro.service import JobServer, JobSubmission

CONFIG = JobConfig(chunk_size=4096, partitions_per_node=1)


def wc_job(name, **kwargs):
    return JobSubmission(name=name, app=WordCountApp(),
                         inputs={f"{name}.txt": wiki_text(2048, seed=0)},
                         **kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(faults=FaultPlan(node_crashes=(NodeCrash(5, 0.001),))),
    dict(faults=FaultPlan(node_joins=(NodeJoin(2, 0.001),))),
    dict(faults=FaultPlan(node_leaves=(NodeLeave(9, 0.001),))),
    dict(config=CONFIG.with_(active_nodes=3)),
], ids=["crash", "join", "leave", "active_nodes"])
def test_bad_submission_is_refused_before_the_clock_starts(kwargs):
    server = JobServer(das4_cluster(nodes=2), config=CONFIG)
    healthy = server.submit(wc_job("healthy"))
    with pytest.raises(ValueError, match="'doomed'.*2"):
        server.submit(wc_job("doomed", **kwargs))
    assert "doomed" not in server.records
    result = server.run()
    assert healthy.outcome == "completed"
    assert len(result.completed) == 1
    assert result.leaked_buffer_slots == 0


def test_single_job_path_still_raises():
    plan = FaultPlan(node_crashes=(NodeCrash(5, 0.001),))
    with pytest.raises(ValueError, match="node crash targets node 5"):
        run_glasswing(WordCountApp(), {"in.txt": wiki_text(2048, seed=0)},
                      das4_cluster(nodes=2), CONFIG, faults=plan)
    with pytest.raises(ValueError, match="outside 1..2"):
        run_glasswing(WordCountApp(), {"in.txt": wiki_text(2048, seed=0)},
                      das4_cluster(nodes=2), CONFIG.with_(active_nodes=3))
