"""Tests for the OS facade: stack assembly, syscalls, hook dispatch."""

import pytest

from repro import Environment, OS, SSD, KB, MB
from repro.core.hooks import SchedulerHooks
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
    assert machine.cache.on_buffers_dirty is None
    assert machine.cache.on_buffer_free is None


def test_split_scheduler_wires_all_layers():
    env = Environment()
    split = SplitNoop()
    machine = OS(env, scheduler=split)
    assert machine.elevator is split
    assert machine.scheduler is split
    assert machine.cache.on_buffers_dirty == split.on_buffers_dirty
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


# -- hooks resolved once at stack build -----------------------------------------


def test_split_deadline_return_hook_clears_active_fsync():
    from repro.schedulers.split_deadline import SplitDeadline

    sched = SplitDeadline()
    env = Environment()
    machine = OS(env, device=SSD(), scheduler=sched)
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(64 * KB)
        yield from handle.fsync()

    drive(env, proc())
    assert machine._sched_return == sched.syscall_return
    assert task.pid not in sched._active_fsyncs


def test_hookless_scheduler_triggers_no_hook_call():
    called = []

    class Quiet(SchedulerHooks):
        pass

    def spy(self, *args):
        called.append(args)

    env = Environment()
    machine = OS(env, device=SSD(), scheduler=Quiet())
    # Patched after the stack is built: the OS resolved the base
    # no-ops away and must not call them.
    Quiet.syscall_entry = Quiet.syscall_return = spy
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.pwrite(0, 8 * KB)
        yield from handle.pread(0, 8 * KB)
        yield from handle.fsync()

    drive(env, proc())
    assert machine._sched_entry is None and machine._sched_return is None
    assert called == []


def test_late_syscall_subscribers_see_every_call():
    from repro.obs import SpanBuilder
    from repro.obs.bus import SyscallEnter, SyscallReturn

    env = Environment()
    machine = OS(env, device=SSD())  # noop: no scheduler hooks at all
    task = machine.spawn("t")
    seen = []
    machine.bus.subscribe(SyscallEnter, lambda e: seen.append(("enter", e.call)))
    machine.bus.subscribe(SyscallReturn, lambda e: seen.append(("return", e.call)))
    builder = SpanBuilder.attach(machine)

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.pwrite(0, 8 * KB)
        yield from handle.pread(0, 8 * KB)

    drive(env, proc())
    assert seen == [("enter", "creat"), ("return", "creat"), ("enter", "write"),
                    ("return", "write"), ("enter", "read"), ("return", "read")]
    assert len(builder.spans) == 3


def test_traced_run_matches_untraced():
    from repro.obs import SpanBuilder

    def run(traced):
        env = Environment()
        machine = OS(env, device=SSD(), scheduler="split-token", memory_bytes=64 * MB)
        task = machine.spawn("t")
        if traced:
            SpanBuilder.attach(machine)

        def proc():
            handle = yield from machine.creat(task, "/f")
            for i in range(64):
                yield from handle.pwrite((i % 16) * 64 * KB, 64 * KB)
                yield from handle.pread((i % 16) * 64 * KB, 4 * KB)
            yield from handle.fsync()

        drive(env, proc())
        return env.now, env._eid, machine.cache.hits, machine.cache.overwrites

    assert run(True) == run(False)
