"""Multi-job service layer: admission control + concurrent dispatch.

The single-tenant engine (:func:`repro.core.engine.run_glasswing`) runs
one job on a fresh cluster.  This package turns the same machinery into
a long-lived *job server*: a stream of submissions is buffered behind a
bounded admission queue (queue-based load-leveling — burst arrivals
level into a steady dispatch rate; overflow is rejected at the door
instead of collapsing the cluster), throttled per tenant, and dispatched
concurrently onto one shared :class:`~repro.core.engine.ClusterSession`
under a cross-job fair-share/priority policy
(:class:`~repro.core.sched.CrossJobArbiter`).

The headline guarantee carries over from the single-tenant engine: a
job's *output* depends only on its data path, so running it next to
other tenants changes contention and timing but never bytes — the
differential suite in ``tests/test_service_differential.py`` pins each
app's concurrent output (and byte counters) to its solo run.
"""

from repro.service.admission import AdmissionQueue, ServicePolicy
from repro.service.server import (JobRecord, JobServer, JobSubmission,
                                  ServiceResult)
from repro.service.trace import (JobRequest, dump_trace, load_trace,
                                 synthetic_trace)

__all__ = [
    "AdmissionQueue", "ServicePolicy",
    "JobServer", "JobSubmission", "JobRecord", "ServiceResult",
    "JobRequest", "synthetic_trace", "load_trace", "dump_trace",
]
