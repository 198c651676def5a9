"""Per-stage metrics extracted from the simulation timeline.

Reproduces the instrumentation of §IV-B: "we instrumented [the pipeline]
with timers for each pipeline stage".  Tables II/III and Figures 4/5 are
all views over these numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.simt.trace import Timeline

__all__ = ["JobMetrics", "STAGES"]

#: the pipeline stages of every phase (map, map.recovery and reduce)
STAGES = ("input", "stage", "kernel", "retrieve", "output")


@dataclass
class JobMetrics:
    """Queryable view over a finished job's timeline."""

    timeline: Timeline
    n_nodes: int

    # -- stage-level ---------------------------------------------------------
    def stage_time(self, phase: str, stage: str,
                   node: Optional[str] = None) -> float:
        """Active (occupied) time of one pipeline stage.

        With ``node=None`` returns the maximum across nodes — the paper's
        single-node tables are exactly the one-node case.
        """
        cat = f"{phase}.{stage}"
        if node is not None:
            return self.timeline.occupied_time(cat, name=node)
        nodes = {s.name for s in self.timeline.by_category(cat)}
        if not nodes:
            return 0.0
        return max(self.timeline.occupied_time(cat, name=n) for n in nodes)

    def breakdown(self, phase: str, node: Optional[str] = None
                  ) -> Dict[str, float]:
        """Stage -> active time for one phase (the Tables II/III rows)."""
        return {stage: self.stage_time(phase, stage, node)
                for stage in STAGES}

    # -- fault tolerance (§III-E) --------------------------------------------
    @property
    def task_failures(self) -> int:
        """Crashed map and reduce task attempts."""
        return (len(self.timeline.by_category("map.task_failure"))
                + len(self.timeline.by_category("reduce.task_failure")))

    @property
    def reexecutions(self) -> int:
        """Task executions beyond the fault-free minimum: crashed map and
        reduce attempts plus whole splits re-executed after node loss."""
        return (self.task_failures
                + len(self.timeline.by_category("recovery.reexec")))

    @property
    def wasted_seconds(self) -> float:
        """Virtual seconds charged to work that was thrown away (partial
        kernel progress of crashed attempts, losing speculative copies)."""
        return (self.timeline.busy_time("map.task_failure")
                + self.timeline.busy_time("reduce.task_failure")
                + sum(s.meta.get("wasted", 0.0)
                      for s in self.timeline.by_category("map.speculative")))

    @property
    def speculative_launches(self) -> int:
        """Speculative duplicates started by the straggler detector."""
        return len(self.timeline.by_category("map.speculative"))

    @property
    def speculative_wins(self) -> int:
        """Races where the duplicate beat the straggling primary."""
        return sum(1 for s in self.timeline.by_category("map.speculative")
                   if s.meta.get("won"))

    @property
    def recovery_time(self) -> float:
        """Wall-clock extent of the post-crash shuffle-recovery wave."""
        return self.timeline.span_extent("phase.recovery")

    @property
    def node_crashes(self) -> int:
        """Nodes the fault plan actually killed during the run."""
        return len(self.timeline.by_category("node.crash"))
