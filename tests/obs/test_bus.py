"""StackBus mechanics: typed dispatch, stack-wide sharing, zero-cost-off."""

import pytest

from repro import MB, Environment, OS, SSD
from repro.obs.bus import StackBus, SyscallEnter
from repro.schedulers import Noop


def make_os():
    env = Environment()
    machine = OS(env, device=SSD(), scheduler=Noop(), memory_bytes=256 * MB)
    return env, machine


def drive(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def write_some(env, machine, nbytes=1 * MB, path="/f"):
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, path)
        yield from handle.append(nbytes)
        yield from handle.fsync()

    drive(env, proc())
    return task


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
    """Zero-cost-off: with no subscribers no event is ever dispatched."""
    env, machine = make_os()
    write_some(env, machine)
    assert machine.block_queue.completed > 0
    assert machine.bus.published == 0


def test_every_layer_shares_one_bus():
    env, machine = make_os()
    assert machine.cache.bus is machine.bus
    assert machine.block_queue.bus is machine.bus
    assert machine.fs.bus is machine.bus
    assert machine.fs.journal.bus is machine.bus
