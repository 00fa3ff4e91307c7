"""Tests for the OS facade: stack assembly, syscalls, hook dispatch."""

import pytest

from repro import Environment, OS, SSD, KB, MB
from repro.core.hooks import SchedulerHooks
from repro.obs.bus import PageDirtied, PageFreed
from repro.schedulers import CFQ, SplitNoop
from repro.syscall.cpu import CPU


def drive(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def test_stack_assembly_defaults():
    env = Environment()
    machine = OS(env)
    assert machine.device is not None
    assert machine.fs.name == "ext4"
    assert machine.writeback.enabled


def test_block_scheduler_installs_as_elevator_without_hooks():
    env = Environment()
    cfq = CFQ()
    machine = OS(env, scheduler=cfq)
    assert machine.elevator is cfq
    assert machine.scheduler is None  # no syscall/memory hooks
    # The paper's information gap: a block scheduler never sees buffers.
    assert not machine.bus.listeners(PageDirtied)
    assert not machine.bus.listeners(PageFreed)


def test_split_scheduler_wires_all_layers():
    env = Environment()
    split = SplitNoop()
    machine = OS(env, scheduler=split)
    assert machine.elevator is split
    assert machine.scheduler is split
    assert len(machine.bus.listeners(PageDirtied)) == 1
    assert split.os is machine


def test_unsupported_scheduler_rejected():
    env = Environment()
    with pytest.raises(ValueError, match="valid choices"):
        OS(env, scheduler="fifo")
    with pytest.raises(TypeError):
        OS(env, scheduler=object())


def test_open_missing_file_raises():
    env = Environment()
    machine = OS(env, device=SSD())
    task = machine.spawn("t")

    def proc():
        with pytest.raises(FileNotFoundError):
            yield from machine.open(task, "/nope")
        yield env.timeout(0)

    drive(env, proc())


def test_open_create_flag():
    env = Environment()
    machine = OS(env, device=SSD())
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.open(task, "/new", create=True)
        return handle.inode.path

    assert drive(env, proc()) == "/new"


def test_file_handle_cursor_semantics():
    env = Environment()
    machine = OS(env, device=SSD())
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.write(10 * KB)
        assert handle.pos == 10 * KB
        handle.seek(0)
        n = yield from handle.read(4 * KB)
        assert handle.pos == 4 * KB
        return n

    assert drive(env, proc()) == 4 * KB


def test_syscalls_cost_cpu_time():
    env = Environment()
    machine = OS(env, device=SSD(), cores=1)
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(1 * MB)
        return machine.cpu.busy_time

    assert drive(env, proc()) > 0


def test_cpu_cores_limit_concurrency():
    env = Environment()
    cpu = CPU(env, cores=1)
    from repro.proc import Task

    t1, t2 = Task("a"), Task("b")
    finish = []

    def burn(task):
        yield from cpu.consume(task, 1.0)
        finish.append(env.now)

    env.process(burn(t1))
    env.process(burn(t2))
    env.run()
    assert finish == [1.0, 2.0]  # serialized on the single core


def test_hook_entry_can_delay_syscall():
    class Delayer(SchedulerHooks):
        def syscall_entry(self, task, call, info):
            if call == "write":
                return self._delay()

        def _delay(self):
            yield self.os.env.timeout(5.0)

    env = Environment()
    machine = OS(env, device=SSD(), scheduler=Delayer())
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        start = env.now
        yield from handle.append(4 * KB)
        return env.now - start

    assert drive(env, proc()) >= 5.0


def test_hook_return_invoked_with_result():
    seen = []

    class Observer(SchedulerHooks):
        def syscall_return(self, task, call, info):
            seen.append((call, info.get("result")))

    env = Environment()
    machine = OS(env, device=SSD(), scheduler=Observer())
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(4 * KB)
        yield from handle.pread(0, 4 * KB)

    drive(env, proc())
    calls = [call for call, _ in seen]
    assert "creat" in calls
    assert ("write", 4 * KB) in seen
    assert ("read", 4 * KB) in seen
