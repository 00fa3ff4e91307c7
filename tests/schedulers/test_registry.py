"""The scheduler registry: one construction path for CLI/experiments."""

import pytest

from repro import MB, Environment, OS, SSD
from repro.schedulers import (
    AFQ,
    CFQ,
    REGISTRY,
    BlockDeadline,
    Noop,
    SCSToken,
    SplitDeadline,
    SplitNoop,
    SplitToken,
    make_scheduler,
)


def test_registry_covers_all_schedulers():
    assert REGISTRY == {
        "noop": Noop,
        "cfq": CFQ,
        "block-deadline": BlockDeadline,
        "scs-token": SCSToken,
        "split-noop": SplitNoop,
        "afq": AFQ,
        "split-deadline": SplitDeadline,
        "split-token": SplitToken,
    }


def test_registry_keys_match_class_names():
    for name, cls in REGISTRY.items():
        assert cls.name == name


def test_make_scheduler_constructs_instances():
    assert isinstance(make_scheduler("cfq"), CFQ)
    assert isinstance(make_scheduler("afq"), AFQ)


def test_make_scheduler_forwards_kwargs():
    sched = make_scheduler("block-deadline", read_deadline=0.123)
    assert sched.read_deadline == 0.123
    split = make_scheduler("split-deadline", fsync_deadline=0.7, own_writeback=True)
    assert split.fsync_deadline == 0.7
    assert split.own_writeback


def test_unknown_name_lists_choices():
    with pytest.raises(ValueError) as excinfo:
        make_scheduler("bfq")
    message = str(excinfo.value)
    assert "bfq" in message
    for name in REGISTRY:
        assert name in message


def test_build_stack_accepts_scheduler_name():
    from repro.config import StackConfig
    from repro.experiments.common import build_stack

    env, machine = build_stack(
        StackConfig(scheduler="split-token", device="ssd", memory_bytes=64 * MB)
    )
    assert isinstance(machine.scheduler, SplitToken)


def test_os_accepts_scheduler_name():
    machine = OS(Environment(), device=SSD(), scheduler="cfq", memory_bytes=64 * MB)
    assert isinstance(machine.elevator, CFQ)


def test_os_rejects_unknown_scheduler_name():
    with pytest.raises(ValueError, match="valid choices"):
        OS(Environment(), device=SSD(), scheduler="nope", memory_bytes=64 * MB)
