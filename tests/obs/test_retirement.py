"""A finished job's gauges leave the sampling loop: counted, not timed.

``JobExecution`` hands its membership gauges back to the hub when its
orchestrator resolves ``job_done``; they are probed once more and never
again.  ``sys.setprofile`` sees every Python-level call, so the gate
below counts probe calls instead of trusting a wall clock (the style of
``tests/core/test_datapath_cost.py``).
"""

import gc
import sys

from repro.apps import WordCountApp
from repro.apps.datagen import wiki_text
from repro.core import JobConfig
from repro.core.engine import ClusterSession, JobExecution
from repro.core.faults import FaultPlan, NodeLeave
from repro.hw.presets import das4_cluster
from repro.obs.telemetry import Histogram, Metric, Telemetry
from repro.service import JobServer, ServicePolicy, synthetic_trace

JOBS = 12
GAUGES_PER_JOB = 6      # four membership levels, two of the control plane
INTERVAL = 0.0005


def probe_key(code, closed_over):
    """One membership probe: the lambda's code and the job state it reads
    (every job's lambdas share their code objects)."""
    return code, id(closed_over)


def test_a_finished_jobs_probes_run_once_more_and_ticks_feed_only_the_live():
    server = JobServer(das4_cluster(nodes=4),
                       policy=ServicePolicy(max_running=3),
                       config=JobConfig(chunk_size=8 * 1024,
                                        partitions_per_node=1),
                       metrics_interval=INTERVAL)
    for request in synthetic_trace(JOBS, seed=7):
        server.submit(request)
    tele = server.session.telemetry

    sample = Telemetry.sample.__code__
    retire = Telemetry.retire.__code__
    snapshots = {Metric._snapshot.__code__, Histogram._snapshot.__code__}
    ticks = []              # [series that may be fed, series fed] per tick
    after_retire = {}       # probe -> calls since its job let go of it

    def profiler(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in snapshots:
            ticks[-1][1] += 1
        elif code is sample:
            ticks.append([len(tele.registry) - len(tele._retired), 0])
        elif code is retire:
            for gauge in frame.f_locals["gauges"]:
                probe, = gauge._probes
                after_retire[probe_key(
                    probe.__code__, probe.__closure__[0].cell_contents)] = 0
        elif code.co_qualname.startswith("register_membership_gauges."):
            closed_over, = frame.f_locals.values()
            key = probe_key(code, closed_over)
            if key in after_retire:
                after_retire[key] += 1

    gc_was_enabled = gc.isenabled()
    gc.disable()            # a collection may call back into Python
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = server.run()
    finally:
        sys.setprofile(previous)
        if gc_was_enabled:
            gc.enable()

    assert result.counters["completed"] == JOBS
    assert len(after_retire) == JOBS * GAUGES_PER_JOB
    assert set(after_retire.values()) == {1}
    assert len(tele._retired) == JOBS * GAUGES_PER_JOB

    assert len(ticks) == len(tele.ticks)    # stop() made a tick of its own
    may_feed, fed = zip(*ticks)
    assert fed == may_feed
    # what was fed is what is stored; the view still shows every series
    # at every tick since its first
    series = tele.registry.sorted_metrics()
    assert sum(fed) == sum(len(m._values) for m in series)
    assert sum(fed) < len(tele.samples) == sum(
        len(tele.ticks) - m._first for m in series)


def test_a_second_job_of_the_same_name_is_sampled_again():
    """Two jobs run one after the other under the default name share
    their membership series; the first one finishing must not blind the
    hub to the second one's drain."""
    app, inputs = WordCountApp(), {"wiki": wiki_text(150_000, seed=81)}
    config = JobConfig(chunk_size=16_384)
    session = ClusterSession(das4_cluster(nodes=4), metrics_interval=1e-4)
    tele = session.telemetry

    first = JobExecution(session, app, inputs, config=config)
    first.start()
    session.run()
    map_time = first.result().map_time
    departed = tele.registry.gauge("glasswing_membership_departed_nodes",
                                   job=first.name)
    assert departed in tele._retired        # the trailing tick took its final

    second = JobExecution(
        session, app, inputs, config=config,
        faults=FaultPlan(node_leaves=(NodeLeave(None, 0.3 * map_time),)))
    second.start()
    session.run()
    tele.stop()
    assert second.result().stats["departed_nodes"] == [3]
    assert [v for _, v in tele.points(departed)][-1] == 1.0
    assert tele.final_values()[departed.series()] == 1.0
    assert departed in tele._retired
    assert departed.value == departed._values[-1]
