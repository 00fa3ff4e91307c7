"""StackConfig: validation, serialization round-trips, assembly."""

import pytest

from repro.cache.writeback import WritebackConfig
from repro.config import StackConfig
from repro.experiments.common import build_stack
from repro.faults import FaultPlan
from repro.faults.plan import FaultWindow, SlowWindow
from repro.fs import XFS, Ext4
from repro.schedulers import CFQ, SplitToken, make_scheduler
from repro.units import MB


def test_defaults_round_trip():
    config = StackConfig()
    assert StackConfig.from_dict(config.to_dict()) == config


def test_full_round_trip_with_nested_objects():
    plan = FaultPlan(
        read_error_prob=0.01,
        write_error_prob=0.02,
        error_windows=[FaultWindow(1.0, 2.0)],
        slow_factor=3.0,
        slow_windows=[SlowWindow(4.0, 5.0, 2.0)],
        power_loss_at=9.5,
    )
    config = StackConfig(
        device="ssd",
        scheduler="split-token",
        memory_bytes=256 * MB,
        fs="xfs",
        writeback=WritebackConfig(dirty_ratio=0.5),
        cores=4,
        queue_depth=32,
        fault_plan=plan,
        fault_seed=7,
    )
    payload = config.to_dict()
    rebuilt = StackConfig.from_dict(payload)
    # Nested objects serialize to dicts, so compare semantically: the
    # rebuilt config must resolve to equivalent live objects.
    assert rebuilt.to_dict() == payload
    assert rebuilt.make_fs_class() is XFS
    assert rebuilt.make_writeback_config().dirty_ratio == 0.5
    rebuilt_plan = rebuilt.make_fault_plan()
    assert rebuilt_plan.read_error_prob == plan.read_error_prob
    assert rebuilt_plan.error_windows == [FaultWindow(1.0, 2.0)]
    assert rebuilt_plan.slow_windows == [SlowWindow(4.0, 5.0, 2.0)]
    assert rebuilt_plan.power_loss_at == 9.5


def test_to_dict_is_json_safe():
    import json

    config = StackConfig(
        scheduler="cfq", fs="ext4",
        writeback=WritebackConfig(), fault_plan=FaultPlan(stall_prob=0.1),
    )
    payload = json.loads(json.dumps(config.to_dict()))
    assert StackConfig.from_dict(payload).to_dict() == config.to_dict()


def test_validation_rejects_bad_fields():
    with pytest.raises(ValueError):
        StackConfig(queue_depth=0)
    with pytest.raises(ValueError):
        StackConfig(memory_bytes=0)
    with pytest.raises(ValueError):
        StackConfig(cores=0)
    with pytest.raises(ValueError):
        StackConfig(fs="zfs").to_dict()


def test_instance_fields_resolve_and_serialize():
    config = StackConfig(scheduler=CFQ(), fs=Ext4)
    with pytest.raises(ValueError, match="REGISTRY name"):
        config.to_dict()
    assert config.replace(scheduler="cfq").to_dict()["fs"] == "ext4"
    assert config.make_scheduler() is config.scheduler  # instances pass through
    assert isinstance(StackConfig(scheduler="split-token").make_scheduler(), SplitToken)


def test_tuned_scheduler_does_not_serialize_as_a_default_one():
    tuned = make_scheduler("split-deadline", own_writeback=True, fsync_deadline=0.005)
    with pytest.raises(ValueError):
        StackConfig(scheduler=tuned).to_dict()
    named = StackConfig(scheduler="split-deadline")
    assert StackConfig.from_dict(named.to_dict()) == named


def test_unnameable_scheduler_fails_to_serialize():
    class Custom(CFQ):
        name = "custom-not-registered"

    config = StackConfig(scheduler=Custom())
    with pytest.raises(ValueError):
        config.to_dict()


def test_replace_returns_updated_copy():
    base = StackConfig(device="ssd")
    deep = base.replace(queue_depth=32)
    assert deep.queue_depth == 32 and base.queue_depth is None
    assert deep.device == "ssd"


def test_legacy_field_spellings_are_rejected():
    with pytest.raises(TypeError):
        StackConfig(fs_class=XFS)
    with pytest.raises(TypeError):
        StackConfig(writeback_config=WritebackConfig(dirty_ratio=0.4))


def test_build_stack_consumes_config():
    config = StackConfig(device="ssd", scheduler="cfq", queue_depth=4,
                         memory_bytes=64 * MB)
    env, machine = build_stack(config)
    assert machine.block_queue.queue_depth == 4
    assert machine.block_queue.nslots == 4
    assert isinstance(machine.block_queue.scheduler, CFQ)
    assert machine.block_queue.device.name == "ssd"


def test_build_stack_rejects_config_plus_kwargs():
    with pytest.raises(TypeError):
        build_stack(StackConfig(), memory_bytes=64 * MB)


def test_build_stack_rejects_keyword_fields():
    with pytest.raises(TypeError):
        build_stack(memory_bytes=64 * MB, device="hdd")
