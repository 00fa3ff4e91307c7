"""Retry, backoff, and exhaustion semantics at queue depth > 1.

PR 6 regression coverage: retries were written for a single dispatch
slot, and hedged/multi-slot dispatch must not bend them — exhaustion
still fails the request after ``max_retries``, backoff still doubles
per attempt, failed writes still re-dirty their pages, EIO still
reaches the syscall layer, and per-slot counters account for every
error without double counting.
"""

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


class BadBlockDevice(Device):
    """Multi-channel device where reads/writes of block 0 always fail."""

    def __init__(self, service=0.001, error_latency=0.001, channels=4):
        super().__init__(capacity_blocks=1 << 20, name="badblock", channels=channels)
        self.service = service
        self.error_latency = error_latency

    def service_time(self, op, block, nblocks):
        self._check_bounds(block, nblocks)
        if block == 0:
            raise MediumError("bad block 0", latency=self.error_latency)
        self._account(op, nblocks, self.service)
        return self.service


def make_queue(device, depth=4, **kwargs):
    env = Environment()
    table = ProcessTable()
    queue = BlockQueue(
        env, device, Noop(), process_table=table, queue_depth=depth, **kwargs
    )
    return env, table, queue


def submit_all(env, table, queue, requests):
    def proc():
        events = [queue.submit(request) for request in requests]
        for event in events:
            yield event

    env.process(proc())
    env.run()


def test_retry_exhaustion_at_depth_fails_only_the_sick_request():
    env, table, queue = make_queue(BadBlockDevice(), depth=4)
    task = table.spawn("t")
    requests = [BlockRequest(READ, i * 64, 8, task) for i in range(8)]
    submit_all(env, table, queue, requests)

    bad, good = requests[0], requests[1:]
    assert bad.failed and isinstance(bad.error, MediumError)
    assert bad.attempts == 1 + queue.max_retries == 4
    assert all(not request.failed for request in good)
    assert queue.completed == 7 and queue.failed == 1
    assert queue.submitted == queue.completed + queue.failed  # conservation


def test_per_slot_counters_account_for_every_error():
    env, table, queue = make_queue(BadBlockDevice(), depth=4)
    task = table.spawn("t")
    # Two permanently-failing requests: 4 attempts (3 retries) each.
    requests = [BlockRequest(READ, 0, 8, task) for _ in range(2)]
    requests += [BlockRequest(READ, 64 * (i + 1), 8, task) for i in range(6)]
    submit_all(env, table, queue, requests)

    assert queue.failed == 2 and queue.errors == 8 and queue.retries == 6
    assert sum(slot.errors for slot in queue.slots) == queue.errors
    assert sum(slot.retries for slot in queue.slots) == queue.retries
    assert sum(slot.failed for slot in queue.slots) == queue.failed
    assert sum(slot.served for slot in queue.slots) == queue.submitted


def test_retries_stay_on_their_slot():
    """All 4 attempts of a failing request burn one slot; its siblings
    keep serving — the batch finishes in service time, not retry time."""
    env, table, queue = make_queue(BadBlockDevice(), depth=4)
    task = table.spawn("t")
    requests = [BlockRequest(READ, 0, 8, task)]
    requests += [BlockRequest(READ, 64 * (i + 1), 8, task) for i in range(9)]
    submit_all(env, table, queue, requests)

    sick_slots = [slot for slot in queue.slots if slot.failed]
    assert len(sick_slots) == 1
    assert sick_slots[0].errors == 4  # every attempt on the same slot
    # 9 good requests over 3 remaining slots, 1ms each: done by 3 ms,
    # while the sick slot alone rides out 4 error latencies + backoffs.
    good_done = max(request.complete_time for request in requests[1:])
    assert good_done == pytest.approx(0.003)
    assert requests[0].complete_time == pytest.approx(4 * 0.001 + 0.01 + 0.02 + 0.04)


def test_failed_write_redirties_pages_at_depth():
    env, table, queue = make_queue(BadBlockDevice(), depth=4)
    cache = PageCache(env, TagManager(), memory_bytes=64 * MB)
    task = table.spawn("t")
    bad_page = cache.mark_dirty(PageKey(1, 0), task)
    good_page = cache.mark_dirty(PageKey(1, 1), task)
    for page in (bad_page, good_page):
        page.write_submitted()

    requests = [
        BlockRequest(WRITE, 0, 8, task, runs=[bad_page]),
        BlockRequest(WRITE, 64, 8, task, runs=[good_page]),
    ]
    submit_all(env, table, queue, requests)
    assert requests[0].failed and not requests[1].failed
    assert bad_page.dirty and not bad_page.under_writeback
    assert not good_page.dirty
    assert cache.dirty_pages == 1


def test_backoff_doubles_from_configured_base():
    env, table, queue = make_queue(BadBlockDevice(error_latency=0.0), depth=2,
                                   retry_backoff=0.05)
    task = table.spawn("t")
    request = BlockRequest(READ, 0, 8, task)
    submit_all(env, table, queue, [request])
    # 4 instant errors, backoffs 0.05 + 0.10 + 0.20 between attempts.
    assert request.failed
    assert env.now == pytest.approx(0.05 + 0.10 + 0.20)


def test_zero_backoff_retries_back_to_back():
    env, table, queue = make_queue(BadBlockDevice(error_latency=0.002), depth=2,
                                   retry_backoff=0.0)
    task = table.spawn("t")
    request = BlockRequest(READ, 0, 8, task)
    submit_all(env, table, queue, [request])
    assert request.failed
    assert env.now == pytest.approx(4 * 0.002)  # only the error latencies


def test_timeouts_back_off_like_errors():
    """A stalled attempt is abandoned at request_timeout, then backs
    off exactly as a medium error would before the next attempt."""

    class Stalled(Device):
        def __init__(self):
            super().__init__(capacity_blocks=1 << 20, name="stalled", channels=2)

        def service_time(self, op, block, nblocks):
            self._check_bounds(block, nblocks)
            return 100.0

    env, table, queue = make_queue(Stalled(), depth=2, request_timeout=1.0)
    task = table.spawn("t")
    request = BlockRequest(READ, 0, 8, task)
    submit_all(env, table, queue, [request])
    assert request.failed
    assert queue.timeouts == 4
    assert env.now == pytest.approx(4 * 1.0 + 0.01 + 0.02 + 0.04)


def test_eio_surfaces_at_syscall_at_depth():
    env = Environment()
    injector = FaultInjector(
        env,
        FaultPlan(error_windows=[FaultWindow(0.0, float("inf"), op="read")]),
        RandomStreams(0),
    )
    machine = OS(
        env, device=FaultyDevice(SSD(), injector), scheduler=Noop(),
        memory_bytes=512 * MB, queue_depth=4,
    )
    task = machine.spawn("app")

    def setup():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(64 * KB)
        yield from handle.fsync()
        return handle

    proc = env.process(setup())
    env.run(until=proc)
    handle = proc.value
    machine.cache.free_file(handle.inode.id)  # force device reads

    def reader():
        yield from handle.pread(0, 4 * KB)

    with pytest.raises(EIO) as info:
        reader_proc = env.process(reader())
        env.run(until=reader_proc)
    assert info.value.errno == 5
    assert machine.block_queue.failed > 0
