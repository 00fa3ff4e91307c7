"""Tests for block-layer retry, backoff, timeout, and EIO surfacing."""

import pytest

from repro import KB, MB, Environment, OS
from repro.block import BlockQueue, BlockRequest
from repro.block.request import READ, WRITE
from repro.cache.cache import PageCache
from repro.cache.page import PageKey
from repro.core.tags import TagManager
from repro.devices import SSD
from repro.devices.base import Device
from repro.faults import EIO, FaultInjector, FaultPlan, FaultWindow, FaultyDevice, MediumError
from repro.proc import ProcessTable
from repro.schedulers.noop import Noop
from repro.sim.rand import RandomStreams


class ScriptedDevice(Device):
    """Fails the first *failures* attempts, then serves in fixed time."""

    def __init__(self, failures, service=0.1, error_latency=0.01):
        super().__init__(capacity_blocks=1 << 20, name="scripted")
        self.failures = failures
        self.service = service
        self.error_latency = error_latency
        self.calls = 0

    def service_time(self, op, block, nblocks):
        self._check_bounds(block, nblocks)
        self.calls += 1
        if self.calls <= self.failures:
            raise MediumError("scripted failure", latency=self.error_latency)
        self._account(op, nblocks, self.service)
        return self.service


def make_queue(device, **kwargs):
    env = Environment()
    table = ProcessTable()
    queue = BlockQueue(env, device, Noop(), process_table=table, **kwargs)
    return env, table, queue


def submit_one(env, queue, task, op=READ, runs=None):
    request = BlockRequest(op, 0, 8, task, runs=runs)
    queue.submit(request)
    env.run(until=request.done)
    return request


def test_transient_errors_retried_with_exponential_backoff():
    """2 failures then success: 2*(error latency) + backoff 0.01+0.02 + service."""
    env, table, queue = make_queue(ScriptedDevice(failures=2))
    request = submit_one(env, queue, table.spawn("t"))
    assert not request.failed
    assert request.attempts == 3
    assert queue.errors == 2 and queue.retries == 2 and queue.failed == 0
    assert env.now == pytest.approx(0.01 + 0.01 + 0.01 + 0.02 + 0.1)


def test_retry_exhaustion_fails_request():
    env, table, queue = make_queue(ScriptedDevice(failures=100))
    request = submit_one(env, queue, table.spawn("t"))
    assert request.failed
    assert isinstance(request.error, MediumError)
    assert request.attempts == 1 + queue.max_retries == 4
    assert queue.errors == 4 and queue.retries == 3 and queue.failed == 1
    # 4 error latencies + backoffs 0.01 + 0.02 + 0.04.
    assert env.now == pytest.approx(4 * 0.01 + 0.01 + 0.02 + 0.04)


def test_done_event_succeeds_even_on_failure():
    """Waiters observe request.failed; done never .fail()s."""
    env, table, queue = make_queue(ScriptedDevice(failures=100))
    request = BlockRequest(READ, 0, 8, table.spawn("t"))
    done = queue.submit(request)
    env.run(until=done)
    assert request.failed
    assert done.triggered
    assert done.value is request  # succeeded with the request


def test_failed_write_redirties_pages():
    env, table, queue = make_queue(ScriptedDevice(failures=100))
    cache = PageCache(env, TagManager(), memory_bytes=64 * MB)
    task = table.spawn("t")
    page = cache.mark_dirty(PageKey(1, 0), task)
    page.write_submitted()
    assert page.under_writeback

    request = submit_one(env, queue, task, op=WRITE, runs=[page])
    assert request.failed
    assert page.dirty and not page.under_writeback  # stays dirty for a later flush
    assert cache.dirty_pages == 1


def test_successful_write_cleans_pages():
    env, table, queue = make_queue(ScriptedDevice(failures=0))
    cache = PageCache(env, TagManager(), memory_bytes=64 * MB)
    task = table.spawn("t")
    page = cache.mark_dirty(PageKey(1, 0), task)
    page.write_submitted()
    submit_one(env, queue, task, op=WRITE, runs=[page])
    assert not page.dirty


def test_scheduler_notified_of_failure():
    class Spy(Noop):
        def __init__(self):
            super().__init__()
            self.failed_reqs, self.completed_reqs = [], []

        def request_failed(self, request):
            self.failed_reqs.append(request)

        def request_completed(self, request):
            self.completed_reqs.append(request)

    spy = Spy()
    env = Environment()
    table = ProcessTable()
    queue = BlockQueue(env, ScriptedDevice(failures=100), spy, process_table=table)
    request = submit_one(env, queue, table.spawn("t"))
    assert spy.failed_reqs == [request]
    assert spy.completed_reqs == []


def test_default_request_failed_falls_through_to_completed():
    """Elevators unaware of failures still settle their accounting."""
    class Spy(Noop):
        def __init__(self):
            super().__init__()
            self.completed_reqs = []

        def request_completed(self, request):
            self.completed_reqs.append(request)

    spy = Spy()
    env = Environment()
    table = ProcessTable()
    queue = BlockQueue(env, ScriptedDevice(failures=100), spy, process_table=table)
    request = submit_one(env, queue, table.spawn("t"))
    assert spy.completed_reqs == [request]  # base request_failed delegated


def test_stalled_device_trips_timeout_not_hang():
    """A 60 s stall against a 30 s timeout: abort, retry, eventually fail."""
    class StalledDevice(Device):
        def __init__(self):
            super().__init__(capacity_blocks=1 << 20, name="stalled")

        def service_time(self, op, block, nblocks):
            self._check_bounds(block, nblocks)
            return 60.0

    env, table, queue = make_queue(StalledDevice(), retry_backoff=0.0)
    request = submit_one(env, queue, table.spawn("t"))
    assert request.failed
    assert queue.timeouts == 4
    assert env.now == pytest.approx(4 * 30.0)  # never waits the full stall


def test_non_retryable_error_propagates():
    """A bounds bug must crash loudly, not be retried."""
    env, table, queue = make_queue(SSD(capacity_blocks=100))
    task = table.spawn("t")
    request = BlockRequest(READ, 99, 2, task)
    queue.submit(request)
    from repro.devices import DeviceError

    with pytest.raises(DeviceError):
        env.run(until=request.done)
    assert queue.retries == 0


def make_faulty_os(plan, seed=0, **kwargs):
    env = Environment()
    injector = FaultInjector(env, plan, RandomStreams(seed))
    device = FaultyDevice(SSD(), injector)
    machine = OS(env, device=device, scheduler=Noop(), memory_bytes=512 * MB, **kwargs)
    return env, machine


def drive(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def test_persistent_read_error_surfaces_eio_at_syscall():
    env, machine = make_faulty_os(
        FaultPlan(error_windows=[FaultWindow(0.0, float("inf"), op="read")])
    )
    task = machine.spawn("app")

    def setup():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(64 * KB)
        yield from handle.fsync()  # data reaches disk (writes are clean)
        return handle

    handle = drive(env, setup())
    machine.cache.free_file(handle.inode.id)  # force a device read

    def reader():
        yield from handle.pread(0, 4 * KB)

    with pytest.raises(EIO) as info:
        drive(env, reader())
    assert info.value.errno == 5


def test_fsync_data_write_failure_raises_eio():
    env, machine = make_faulty_os(
        FaultPlan(error_windows=[FaultWindow(0.0, float("inf"), op="write")])
    )
    task = machine.spawn("app")

    def writer():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(64 * KB)
        yield from handle.fsync()

    with pytest.raises(EIO):
        drive(env, writer())
    assert machine.block_queue.failed > 0


def test_persistent_write_error_aborts_journal_with_eio():
    """The periodic commit fails on-device; later fsyncs observe EIO."""
    env, machine = make_faulty_os(
        FaultPlan(error_windows=[FaultWindow(0.0, float("inf"), op="write")])
    )
    task = machine.spawn("app")

    def writer():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(64 * KB)
        return handle

    handle = drive(env, writer())
    env.run(until=env.now + 30.0)  # commit timer fires and its writes fail
    assert machine.fs.journal.aborted

    def syncer():
        yield from handle.fsync()

    with pytest.raises(EIO):
        drive(env, syncer())


def test_writeback_daemon_survives_write_errors():
    """pdflush counts failures and stays alive; pages remain dirty."""
    env, machine = make_faulty_os(
        FaultPlan(error_windows=[FaultWindow(0.0, float("inf"), op="write")])
    )
    task = machine.spawn("app")

    def writer():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(256 * KB)

    drive(env, writer())
    machine.writeback.kick()
    env.run(until=env.now + 40.0)
    assert machine.writeback.write_errors > 0
    assert machine.cache.dirty_pages > 0  # failed writes re-dirtied
    env.run(until=env.now + 10.0)  # daemon still alive (no crash)
