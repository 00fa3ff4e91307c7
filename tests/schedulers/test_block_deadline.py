"""Tests for the Block-Deadline elevator."""

from repro.block import BlockQueue, BlockRequest
from repro.block.request import READ, WRITE
from repro.devices import SSD, HDD
from repro.obs.bus import BlockComplete
from repro.proc import ProcessTable
from repro.schedulers.block_deadline import BlockDeadline
from repro.sim import Environment


def make_stack(scheduler, device=None):
    env = Environment()
    table = ProcessTable()
    queue = BlockQueue(env, device or SSD(), scheduler, process_table=table)
    return env, table, queue


def test_location_order_when_no_deadline_pressure():
    sched = BlockDeadline(read_deadline=100, write_deadline=100)
    env, table, queue = make_stack(sched, device=HDD())
    task = table.spawn("t")
    order = []
    queue.bus.subscribe(BlockComplete, lambda e: order.append(e.request.block))

    def proc():
        blocks = [5000, 100, 3000, 200]
        events = [queue.submit(BlockRequest(READ, b, 1, task)) for b in blocks]
        for e in events:
            yield e

    env.process(proc())
    env.run()
    # After the first dispatch (FIFO head), the rest follow C-SCAN order.
    assert order[1:] == sorted(order[1:])


def test_expired_request_preempts_sorted_order():
    sched = BlockDeadline(read_deadline=0.01, write_deadline=100)
    env, table, queue = make_stack(sched, device=HDD())
    task = table.spawn("t")
    order = []
    queue.bus.subscribe(BlockComplete, lambda e: order.append((e.request.op, e.request.block)))

    def proc():
        # A slow write keeps the device busy while the read expires.
        first = queue.submit(BlockRequest(WRITE, 0, 2048, task))
        yield env.timeout(0.001)  # let the dispatcher pick up the write
        e1 = queue.submit(BlockRequest(READ, 900000, 1, task))
        e2 = queue.submit(BlockRequest(WRITE, 10000, 1, task))
        yield first
        yield e1
        yield e2

    env.process(proc())
    env.run()
    # The read expired during the initial write, so it is served before
    # the write that is closer to the head.
    assert order[1] == (READ, 900000)
    assert sched.expired_served >= 1


def test_per_process_deadline_override():
    sched = BlockDeadline(read_deadline=10.0)
    env, table, queue = make_stack(sched)
    urgent, normal = table.spawn("urgent"), table.spawn("normal")
    sched.set_deadline(urgent, READ, 0.001)
    assert sched.deadline_for(urgent, READ) == 0.001
    assert sched.deadline_for(normal, READ) == 10.0


def test_writes_not_starved_forever():
    sched = BlockDeadline(read_deadline=100, write_deadline=100, writes_starved=2)
    env, table, queue = make_stack(sched, device=HDD())
    task = table.spawn("t")
    order = []
    queue.bus.subscribe(BlockComplete, lambda e: order.append(e.request.op))

    def proc():
        events = []
        for i in range(6):
            events.append(queue.submit(BlockRequest(READ, i * 100, 1, task)))
        events.append(queue.submit(BlockRequest(WRITE, 50000, 1, task)))
        for e in events:
            yield e

    env.process(proc())
    env.run()
    # The write is served before the read stream fully drains.
    assert WRITE in order[:-1]


def test_has_work_reflects_queues():
    sched = BlockDeadline()
    env, table, queue = make_stack(sched)
    task = table.spawn("t")
    assert not sched.has_work()

    def proc():
        yield queue.submit(BlockRequest(READ, 0, 1, task))

    env.process(proc())
    env.run()
    assert not sched.has_work()
