"""Tests for the experiment plumbing helpers."""

import pytest

from repro.config import StackConfig
from repro.devices import HDD, SSD
from repro.experiments.common import build_stack, drive, format_table, make_device, run_for
from repro.fs.xfs import XFS
from repro.schedulers import Noop
from repro.units import MB


def test_make_device_kinds():
    assert isinstance(make_device("hdd"), HDD)
    assert isinstance(make_device("ssd"), SSD)
    with pytest.raises(ValueError):
        make_device("nvme")


def test_build_stack_defaults():
    env, machine = build_stack(StackConfig(scheduler=Noop(), memory_bytes=64 * MB))
    assert machine.fs.name == "ext4"
    assert machine.cache.memory_bytes == 64 * MB


def test_build_stack_with_fs_class():
    env, machine = build_stack(StackConfig(scheduler=Noop(), fs=XFS, memory_bytes=64 * MB))
    assert machine.fs.name == "xfs"
    assert machine.fs.full_integration is False


def test_build_stack_writeback_toggle():
    env, machine = build_stack(
        StackConfig(scheduler=Noop(), writeback_enabled=False, memory_bytes=64 * MB)
    )
    assert not machine.writeback.enabled


def test_drive_and_run_for():
    env, machine = build_stack(StackConfig(scheduler=Noop(), memory_bytes=64 * MB))
    machine.spawn("t")

    def proc():
        yield env.timeout(1.5)
        return "done"

    assert drive(env, proc()) == "done"
    run_for(env, 2.0)
    assert env.now == pytest.approx(3.5)


def test_format_table_alignment():
    table = format_table(["name", "value"], [["a", 1], ["longer", 22]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")
    assert "------" in lines[1]
    assert lines[3].startswith("longer")


def test_build_stack_installs_and_clears_fault_plan():
    from repro.experiments import common
    from repro.faults import FaultPlan, FaultyDevice

    common.set_default_fault_plan(FaultPlan(read_error_prob=0.5), seed=3)
    try:
        env, machine = common.build_stack(StackConfig(scheduler=Noop(), memory_bytes=64 * MB))
        assert isinstance(machine.block_queue.device, FaultyDevice)
        summaries = common.drain_fault_summaries()
        assert len(summaries) == 1
        assert summaries[0]["device"].startswith("faulty-")
    finally:
        common.clear_default_fault_plan()
    env, machine = common.build_stack(StackConfig(scheduler=Noop(), memory_bytes=64 * MB))
    assert not isinstance(machine.block_queue.device, FaultyDevice)


def test_empty_fault_plan_is_not_installed():
    from repro.experiments import common
    from repro.faults import FaultPlan, FaultyDevice

    common.set_default_fault_plan(FaultPlan(), seed=1)  # empty: a no-op
    try:
        env, machine = common.build_stack(StackConfig(scheduler=Noop(), memory_bytes=64 * MB))
        assert not isinstance(machine.block_queue.device, FaultyDevice)
    finally:
        common.clear_default_fault_plan()
