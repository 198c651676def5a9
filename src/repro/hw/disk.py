"""Runtime disk model: FCFS channel with sequential-transfer timing.

Spinning disks of the paper's era serve one stream well and interleave
poorly, so concurrent requests are FCFS-serialised through a single
channel; each request pays one positioning time plus bytes/bandwidth.
Sub-requests issued back-to-back by the same streaming reader pay the
seek only once per ``seek_free_window`` of contiguous bytes.
"""

from __future__ import annotations

from typing import Generator

from repro.simt.core import Simulator
from repro.simt.resources import Resource
from repro.simt.trace import Timeline

from repro.hw.specs import DiskSpec

__all__ = ["Disk"]


class Disk:
    """A node-local disk volume attached to a simulator."""

    def __init__(self, sim: Simulator, spec: DiskSpec, name: str = "disk",
                 timeline: Timeline | None = None):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.timeline = timeline
        self._channel = Resource(sim, 1, name=f"{name}.channel")
        self.bytes_read = 0
        self.bytes_written = 0
        # Last stream per operation: the OS elevator plus read-ahead and
        # write buffering keep one sequential read stream and one
        # sequential write stream cheap even when they interleave.
        self._last_stream: dict[str, str] = {}

    def read(self, nbytes: int, stream: str = "") -> Generator:
        """Process-style generator: complete a read of ``nbytes``."""
        yield from self._transfer("read", nbytes, stream)

    def write(self, nbytes: int, stream: str = "") -> Generator:
        """Process-style generator: complete a write of ``nbytes``."""
        yield from self._transfer("write", nbytes, stream)

    def _transfer(self, op: str, nbytes: int, stream: str) -> Generator:
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if nbytes == 0:
            return
        yield from self._channel.take()
        start = self.sim.now
        try:
            bw = self.spec.read_bw if op == "read" else self.spec.write_bw
            seek = self.spec.seek_time
            # Streaming the same file back-to-back skips the positioning cost.
            if stream and self._last_stream.get(op) == stream:
                seek = 0.0
            if stream:
                self._last_stream[op] = stream
            else:
                self._last_stream.pop(op, None)
            yield self.sim.timeout(seek + nbytes / bw)
            if op == "read":
                self.bytes_read += nbytes
            else:
                self.bytes_written += nbytes
        finally:
            self._channel.release()
        if self.timeline is not None:
            self.timeline.record(f"disk.{op}", self.name, start, self.sim.now,
                                 bytes=nbytes)

    def probe(self) -> dict:
        """Channel-occupancy snapshot for telemetry samplers."""
        state = self._channel.probe()
        return {"busy": state["in_use"], "waiters": state["waiters"]}
