"""Framework wiring details across scheduler kinds."""

from repro import Environment, OS, SSD, KB, MB
from repro.core.tags import CauseSet
from repro.obs.bus import PageDirtied, PageFreed
from repro.obs.span import SpanBuilder
from repro.schedulers import CFQ, SCSToken, SplitNoop, SplitToken


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


def make_spied_stack(scheduler):
    """A stack whose scheduler records each memory hook it receives."""
    machine = OS(Environment(), device=SSD(), scheduler=scheduler, memory_bytes=64 * MB)
    calls = []
    scheduler.on_buffers_dirty = lambda pages, old: calls.extend(
        ("dirty", page, old) for page in pages
    )
    scheduler.on_buffer_free = lambda page: calls.append(("free", page))
    return machine, calls


def test_split_scheduler_owns_the_memory_hooks():
    """Exactly one subscriber per memory hook, and it is the scheduler's."""
    machine, calls = make_spied_stack(SplitToken())
    dirtied = machine.bus.listeners(PageDirtied)
    freed = machine.bus.listeners(PageFreed)
    assert len(dirtied) == 1 and len(freed) == 1
    page, old = object(), CauseSet([7])
    dirtied[0](PageDirtied(0.0, (page,), old))
    freed[0](PageFreed(0.0, page))
    assert calls == [("dirty", page, old), ("free", page)]


def test_scheduler_hook_precedes_tracing_subscribers():
    machine, calls = make_spied_stack(SplitNoop())
    SpanBuilder.attach(machine)
    assert len(machine.bus.listeners(PageDirtied)) == 1
    machine.bus.subscribe(
        PageDirtied, lambda e: calls.extend(("traced", page) for page in e.pages)
    )
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(4 * KB)

    machine.env.run(until=machine.env.process(proc()))
    assert [call[0] for call in calls] == ["dirty", "traced"]
