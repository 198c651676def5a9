"""Additional coverage for public utilities of the hw/ocl layers."""

import pytest

from repro.hw import Disk, Node
from repro.hw.presets import type1_node
from repro.hw.specs import DeviceKind, DiskSpec
from repro.ocl import Context, Device
from repro.simt import Simulator


def make_ctx(gpu=True):
    sim = Simulator()
    node = Node(sim, type1_node(gpu=gpu), 0)
    dev = Device(sim, node.spec.device(DeviceKind.GPU if gpu
                                       else DeviceKind.CPU), node)
    return sim, node, dev, Context(sim, [dev])


def test_disk_time_for_estimate():
    """An uncontended request pays one seek plus bytes / bandwidth."""
    sim = Simulator()
    disk = Disk(sim, DiskSpec(name="d", read_bw=100e6, write_bw=50e6,
                              seek_time=0.01))
    ends = {}

    def proc(sim, op):
        yield from getattr(disk, op)(100_000_000)
        ends[op] = sim.now

    sim.process(proc(sim, "read"))
    sim.run()
    sim.process(proc(sim, "write"))
    sim.run()
    assert ends["read"] == pytest.approx(1.01)
    assert ends["write"] == pytest.approx(1.01 + 2.01)


def test_context_live_buffers_accounting():
    sim, node, dev, ctx = make_ctx()
    assert dev.mem_used == 0
    a = ctx.alloc_buffer(dev, 100)
    b = ctx.alloc_buffer(dev, 200)
    assert dev.mem_used == 300
    ctx.release(a)
    assert dev.mem_used == 200
    ctx.release(b)
    assert dev.mem_used == 0
    ctx.release_all()                 # nothing left to free
    assert dev.mem_used == 0


def test_negative_buffer_size_rejected():
    sim, node, dev, ctx = make_ctx()
    with pytest.raises(ValueError):
        ctx.alloc_buffer(dev, -1)


def test_transfer_direction_validated():
    sim, node, dev, ctx = make_ctx()

    def proc():
        yield from dev.transfer(100, "sideways")

    sim.process(proc())
    with pytest.raises(ValueError):
        sim.run()
