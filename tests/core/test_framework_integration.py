"""Framework wiring details across scheduler kinds."""

import pytest

from repro import Environment, OS, SSD, KB, MB
from repro.core.tags import CauseSet
from repro.obs.bus import PageDirtied, PageFreed
from repro.obs.span import SpanBuilder
from repro.schedulers import AFQ, CFQ, SCSToken, SplitDeadline, SplitNoop, SplitToken


def test_scs_installs_cfq_elevator_beneath():
    """SCS sits above the stock kernel elevator, as on real Linux."""
    env = Environment()
    machine = OS(env, device=SSD(), scheduler=SCSToken(), memory_bytes=64 * MB)
    assert isinstance(machine.elevator, CFQ)
    assert machine.scheduler is not None  # syscall hooks active


def test_split_scheduler_is_both_hooks_and_elevator():
    env = Environment()
    split = SplitToken()
    machine = OS(env, device=SSD(), scheduler=split, memory_bytes=64 * MB)
    assert machine.elevator is split
    assert len(machine.bus.listeners(PageDirtied)) == 1


@pytest.mark.parametrize(
    "scheduler, listeners",
    [(SplitDeadline, 0), (AFQ, 0), (SplitToken, 1), (SplitNoop, 1)],
)
def test_memory_hooks_subscribed_only_where_the_scheduler_implements_them(
    scheduler, listeners
):
    """A split scheduler that inherits the no-op memory hooks gets no
    bus subscription, so writes on its stack publish no buffer events."""
    machine = OS(Environment(), device=SSD(), scheduler=scheduler(), memory_bytes=64 * MB)
    assert len(machine.bus.listeners(PageDirtied)) == listeners
    assert len(machine.bus.listeners(PageFreed)) == listeners


def make_spied_stack(scheduler):
    """A stack whose scheduler records each memory hook it receives."""
    machine = OS(Environment(), device=SSD(), scheduler=scheduler, memory_bytes=64 * MB)
    calls = []
    scheduler.on_buffers_dirty = lambda inode_id, first, stop, causes, old: calls.append(
        ("dirty", (inode_id, first, stop), causes, old)
    )
    scheduler.on_buffer_free = lambda inode_id, first, stop: calls.append(
        ("free", (inode_id, first, stop))
    )
    return machine, calls


def test_split_scheduler_owns_the_memory_hooks():
    """Exactly one subscriber per memory hook, and it is the scheduler's."""
    machine, calls = make_spied_stack(SplitToken())
    dirtied = machine.bus.listeners(PageDirtied)
    freed = machine.bus.listeners(PageFreed)
    assert len(dirtied) == 1 and len(freed) == 1
    new, old = CauseSet([7, 8]), CauseSet([7])
    dirtied[0](PageDirtied(0.0, 3, 0, 2, new, old))
    freed[0](PageFreed(0.0, 3, 0, 2))
    assert calls == [("dirty", (3, 0, 2), new, old), ("free", (3, 0, 2))]


def test_scheduler_hook_precedes_tracing_subscribers():
    machine, calls = make_spied_stack(SplitNoop())
    SpanBuilder.attach(machine)
    assert len(machine.bus.listeners(PageDirtied)) == 1
    machine.bus.subscribe(
        PageDirtied, lambda e: calls.append(("traced", (e.inode_id, e.first, e.stop)))
    )
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(4 * KB)

    machine.env.run(until=machine.env.process(proc()))
    assert [call[0] for call in calls] == ["dirty", "traced"]
