"""Tests for the experiment plumbing helpers."""

import pytest

from repro.config import StackConfig
from repro.devices import HDD, SSD
from repro.experiments.common import build_stack, drive, make_device, run_for
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


def test_build_stack_installs_and_clears_fault_plan():
    from repro.experiments import common
    from repro.faults import FaultPlan, FaultyDevice

    with common.using(fault=(FaultPlan(read_error_prob=0.5), 3)):
        env, machine = common.build_stack(StackConfig(scheduler=Noop(), memory_bytes=64 * MB))
        assert isinstance(machine.block_queue.device, FaultyDevice)
        summaries = common.drain_fault_summaries()
        assert len(summaries) == 1
        assert summaries[0]["device"].startswith("faulty-")
    env, machine = common.build_stack(StackConfig(scheduler=Noop(), memory_bytes=64 * MB))
    assert not isinstance(machine.block_queue.device, FaultyDevice)


def test_empty_fault_plan_is_not_installed():
    from repro.experiments import common
    from repro.faults import FaultPlan, FaultyDevice

    with common.using(fault=(FaultPlan(), 1)):  # empty: a no-op
        env, machine = common.build_stack(StackConfig(scheduler=Noop(), memory_bytes=64 * MB))
        assert not isinstance(machine.block_queue.device, FaultyDevice)


def test_install_validates_and_returns_previous_session():
    from repro.experiments import common

    before = common.session()
    previous = common.install(before._replace(queue_depth=3, hedge=True))
    try:
        assert previous == before
        assert common.session().queue_depth == 3
        assert common.session().hedge is True
    finally:
        common.install(previous)
    assert common.session() == before
    with pytest.raises(ValueError):
        common.install(before._replace(queue_depth=0))
    assert common.session() == before


def test_using_restores_the_session_on_error():
    from repro.experiments import common

    before = common.session()
    with pytest.raises(RuntimeError):
        with common.using(hedge=True, trace=True) as inside:
            assert inside == common.session() == before._replace(hedge=True, trace=True)
            raise RuntimeError("boom")
    assert common.session() == before
