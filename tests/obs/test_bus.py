"""StackBus mechanics: typed dispatch, stack-wide sharing, zero-cost-off."""

import pytest

from repro import KB, MB, Environment, OS, SSD
from repro.obs.bus import EVENT_TYPES, StackBus, SyscallEnter
from repro.schedulers import REGISTRY, Noop


def make_os():
    env = Environment()
    machine = OS(env, device=SSD(), scheduler=Noop(), memory_bytes=256 * MB)
    return env, machine


def drive(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def test_subscribe_and_publish_in_order():
    bus = StackBus()
    seen = []
    bus.subscribe(SyscallEnter, lambda e: seen.append(("a", e.call)))
    bus.subscribe(SyscallEnter, lambda e: seen.append(("b", e.call)))
    bus.publish(SyscallEnter(0.0, None, "read", {}))
    assert seen == [("a", "read"), ("b", "read")]
    assert bus.published == 1


def test_unsubscribe_stops_delivery():
    bus = StackBus()
    seen = []
    unsub = bus.subscribe(SyscallEnter, seen.append)
    bus.publish(SyscallEnter(0.0, None, "read", {}))
    unsub()
    unsub()  # idempotent
    bus.publish(SyscallEnter(1.0, None, "read", {}))
    assert len(seen) == 1


def test_unknown_event_type_rejected():
    bus = StackBus()
    with pytest.raises(ValueError, match="unknown event type"):
        bus.subscribe(int, lambda e: None)


def test_untraced_stack_publishes_nothing():
    """Zero-cost-off, under every scheduler: a write, a cached
    overwrite, an fsync and an unlink dispatch no event and leave every
    subscriber list empty, because the scheduler's hooks are direct
    calls.  Split-Token's prompt charges still land: its bucket is
    charged when pages are born and refunded when they are unlinked
    before writeback."""
    for name, cls in REGISTRY.items():
        env = Environment()
        machine = OS(env, device=SSD(), scheduler=cls(), memory_bytes=256 * MB)
        task = machine.spawn("t")
        bucket = machine.scheduler.set_limit(task, rate=1e12) if name == "split-token" else None
        handle = drive(env, machine.creat(task, "/f"))
        drive(env, handle.append(64 * KB))
        drive(env, handle.pwrite(0, 64 * KB))  # a cached overwrite
        drive(env, handle.fsync())
        if bucket is not None:
            assert bucket.charged_total > 0
            charged, refunded = bucket.charged_total, bucket.refunded_total
        drive(env, handle.append(16 * KB))  # dirty pages, then unlinked
        if bucket is not None:
            born = bucket.charged_total - charged
            assert born > 0
        drive(env, machine.close(handle))
        drive(env, machine.unlink(task, "/f"))
        if bucket is not None:
            assert bucket.refunded_total - refunded == pytest.approx(born)
        assert machine.block_queue.completed > 0, name
        assert machine.bus.published == 0, name
        assert not any(machine.bus.listeners(etype) for etype in EVENT_TYPES), name


def test_every_layer_shares_one_bus():
    env, machine = make_os()
    assert machine.block_queue.bus is machine.bus
    assert machine.fs.bus is machine.bus
    assert machine.fs.journal.bus is machine.bus
