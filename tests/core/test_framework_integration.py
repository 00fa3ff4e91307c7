"""Framework wiring details across scheduler kinds."""

import pytest

from repro import Environment, OS, SSD, KB, MB
from repro.core.tags import CauseSet
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
    assert machine.cache.on_buffers_dirty == split.on_buffers_dirty


@pytest.mark.parametrize(
    "scheduler, listeners",
    [(SplitDeadline, 0), (AFQ, 0), (SplitToken, 1), (SplitNoop, 1)],
)
def test_memory_hooks_subscribed_only_where_the_scheduler_implements_them(
    scheduler, listeners
):
    """A split scheduler that inherits the no-op memory hooks leaves
    the cache's hooks None, so writes on its stack make no hook call."""
    sched = scheduler()
    machine = OS(Environment(), device=SSD(), scheduler=sched, memory_bytes=64 * MB)
    hooks = (machine.cache.on_buffers_dirty, machine.cache.on_buffer_free)
    if listeners:
        assert hooks == (sched.on_buffers_dirty, sched.on_buffer_free)
    else:
        assert hooks == (None, None)


def make_spied_stack(scheduler):
    """A stack whose scheduler records each memory hook it receives.

    The OS binds the hooks when it is built, so the scheduler is
    patched first."""
    calls = []
    scheduler.on_buffers_dirty = lambda inode_id, first, stop, causes, old: calls.append(
        ("dirty", (inode_id, first, stop), causes, old)
    )
    scheduler.on_buffer_free = lambda inode_id, first, stop: calls.append(
        ("free", (inode_id, first, stop))
    )
    machine = OS(Environment(), device=SSD(), scheduler=scheduler, memory_bytes=64 * MB)
    return machine, calls


def test_split_scheduler_owns_the_memory_hooks():
    """The cache's memory hooks are the scheduler's own."""
    machine, calls = make_spied_stack(SplitToken())
    new, old = CauseSet([7, 8]), CauseSet([7])
    machine.cache.on_buffers_dirty(3, 0, 2, new, old)
    machine.cache.on_buffer_free(3, 0, 2)
    assert calls == [("dirty", (3, 0, 2), new, old), ("free", (3, 0, 2))]


@pytest.mark.parametrize("scheduler", [SplitToken, SplitNoop])
def test_cache_calls_the_scheduler_memory_hooks(scheduler):
    """A write births its pages with one buffer-dirty call, and an
    unlink before writeback frees them with one buffer-free call."""
    machine, calls = make_spied_stack(scheduler())
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(8 * KB)
        yield from machine.close(handle)
        yield from machine.unlink(task, "/f")
        return handle.inode.id

    inode_id = machine.env.run(until=machine.env.process(proc()))
    assert calls == [
        ("dirty", (inode_id, 0, 2), CauseSet([task.pid]), CauseSet()),
        ("free", (inode_id, 0, 2)),
    ]
