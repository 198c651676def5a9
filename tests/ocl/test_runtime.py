"""Tests for the device model: launches, transfers, buffers."""

import pytest

from repro.hw import Node
from repro.hw.presets import type1_node
from repro.ocl import (
    Context,
    Device,
    KernelCost,
    OCLError,
    OutOfDeviceMemory,
)
from repro.hw.specs import DeviceKind
from repro.simt import Simulator


def make_node(gpu=True):
    sim = Simulator()
    node = Node(sim, type1_node(gpu=gpu), 0)
    return sim, node


def make_devices(sim, node):
    cpu = Device(sim, node.spec.cpu_device, node)
    gpu = Device(sim, node.spec.device(DeviceKind.GPU), node)
    return cpu, gpu


def drive(sim, gen):
    sim.process(gen)
    sim.run()


def test_cpu_kernel_runs_on_host_threads():
    sim, node = make_node()
    cpu, _ = make_devices(sim, node)
    # 19 GFLOP = 1 second on the full CPU device.
    drive(sim, cpu.execute_cost(KernelCost(flops=19e9)))
    assert sim.now == pytest.approx(1.0 + cpu.spec.launch_overhead, rel=1e-3)
    assert cpu.kernels_launched == 1


def test_cpu_kernel_with_fewer_threads_is_slower():
    sim, node = make_node()
    cpu, _ = make_devices(sim, node)
    drive(sim, cpu.execute_cost(KernelCost(flops=19e9), threads=4))  # of 16
    assert sim.now == pytest.approx(4.0, rel=1e-2)


def test_gpu_kernel_does_not_use_host_threads():
    sim, node = make_node()
    _, gpu = make_devices(sim, node)
    busy = []

    def watcher(sim):
        yield sim.timeout(0.5)
        busy.append(node.cpu.demand)

    sim.process(watcher(sim))
    drive(sim, gpu.execute_cost(KernelCost(flops=380e9)))
    assert busy == [0]  # host threads idle during GPU kernel
    assert sim.now == pytest.approx(1.0 + gpu.spec.launch_overhead, rel=1e-3)


def test_gpu_kernels_serialize_on_exec_engine():
    sim, node = make_node()
    _, gpu = make_devices(sim, node)
    sim.process(gpu.execute_cost(KernelCost(flops=380e9)))
    drive(sim, gpu.execute_cost(KernelCost(flops=380e9)))
    # Two 1-second launches from different pipelines share one engine.
    assert sim.now == pytest.approx(2.0, rel=1e-2)


def test_transfer_time_h2d():
    sim, node = make_node()
    _, gpu = make_devices(sim, node)
    drive(sim, gpu.transfer(55_000_000, "h2d"))
    assert sim.now == pytest.approx(0.01, rel=1e-2)  # 55MB / 5.5GB/s
    assert gpu.bytes_transferred == 55_000_000


def test_unified_memory_transfer_is_free():
    sim, node = make_node()
    cpu, _ = make_devices(sim, node)
    drive(sim, cpu.transfer(10**9, "h2d"))
    assert sim.now == 0.0


@pytest.mark.parametrize("op", ["disk.read", "execute_cost", "transfer"])
def test_free_token_is_taken_without_an_event(op):
    """On an idle node the disk channel and the GPU's exec and DMA
    engines are free: taking one queues nothing, so once the process
    starts the heap holds only the hold's own timeout."""
    sim, node = make_node()
    _, gpu = make_devices(sim, node)
    gen = {"disk.read": lambda: node.disk.read(1_000_000),
           "execute_cost": lambda: gpu.execute_cost(KernelCost(flops=1e9)),
           "transfer": lambda: gpu.transfer(1_000_000, "h2d")}[op]()
    sim.process(gen)
    sim.step()                  # bootstrap: runs the body to its first yield
    assert len(sim._heap) == 1
    hold_end = sim.peek()
    assert hold_end > 0.0
    sim.run()
    assert sim.now == hold_end


def test_device_memory_exhaustion():
    sim, node = make_node()
    _, gpu = make_devices(sim, node)
    ctx = Context(sim, [gpu])
    cap = gpu.spec.device_mem
    ctx.alloc_buffer(gpu, cap - 100)
    with pytest.raises(OutOfDeviceMemory):
        ctx.alloc_buffer(gpu, 200)


def test_buffer_release_returns_memory():
    sim, node = make_node()
    _, gpu = make_devices(sim, node)
    ctx = Context(sim, [gpu])
    buf = ctx.alloc_buffer(gpu, 1000)
    assert gpu.mem_used == 1000
    ctx.release(buf)
    assert gpu.mem_used == 0
    with pytest.raises(OCLError):
        ctx.release(buf)


def test_context_requires_devices():
    sim, node = make_node()
    with pytest.raises(OCLError):
        Context(sim, [])
