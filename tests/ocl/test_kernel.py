"""Tests for the kernel cost model."""

import pytest

from repro.hw.presets import CPU_TYPE1, GTX480
from repro.ocl import KernelCost


def test_compute_bound_cost():
    cost = KernelCost(flops=19e9)  # exactly 1s of CPU_TYPE1 compute
    t = cost.time_on(CPU_TYPE1)
    assert t == pytest.approx(1.0 + CPU_TYPE1.launch_overhead)


def test_memory_bound_cost():
    cost = KernelCost(flops=1e6, device_bytes=20e9)
    t = cost.time_on(CPU_TYPE1)
    # 20 GB over 20 GB/s memory bandwidth dominates the tiny flop count.
    assert t == pytest.approx(1.0 + CPU_TYPE1.launch_overhead)


def test_roofline_takes_max_not_sum():
    cost = KernelCost(flops=19e9, device_bytes=20e9)
    t = cost.time_on(CPU_TYPE1)
    assert t == pytest.approx(1.0 + CPU_TYPE1.launch_overhead)


def test_gpu_much_faster_on_compute():
    cost = KernelCost(flops=38e9)
    assert cost.time_on(CPU_TYPE1) / cost.time_on(GTX480) > 15


def test_atomic_contention_slows_kernel():
    base = KernelCost(flops=1e9)
    contended = KernelCost(flops=1e9, atomic_intensity=0.8)
    assert contended.time_on(GTX480) > base.time_on(GTX480)
    # Fermi pays more for contention than the CPU.
    gpu_ratio = contended.time_on(GTX480) / base.time_on(GTX480)
    cpu_ratio = contended.time_on(CPU_TYPE1) / base.time_on(CPU_TYPE1)
    assert gpu_ratio > cpu_ratio


def test_launch_overhead_scales_with_launches():
    one = KernelCost(launches=1)
    many = KernelCost(launches=1000)
    assert many.time_on(GTX480) == pytest.approx(1000 * one.time_on(GTX480))


def test_cost_validation():
    with pytest.raises(ValueError):
        KernelCost(flops=-1)
    with pytest.raises(ValueError):
        KernelCost(atomic_intensity=1.5)


def test_cost_scaled_and_add():
    a = KernelCost(flops=10, device_bytes=20, atomic_intensity=0.2)
    b = a.scaled(2.0)
    assert b.flops == 20 and b.device_bytes == 40
    c = a + b
    assert c.flops == 30
    assert c.launches == 2
    assert c.atomic_intensity == 0.2
