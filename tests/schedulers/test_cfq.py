"""Tests for the CFQ elevator model."""

from repro.block import BlockQueue, BlockRequest
from repro.block.request import READ
from repro.devices import HDD, SSD
from repro.obs.bus import BlockComplete
from repro.proc import ProcessTable
from repro.schedulers.cfq import CFQ, priority_weight
from repro.sim import Environment


def make_stack(scheduler, device=None):
    env = Environment()
    table = ProcessTable()
    queue = BlockQueue(env, device or SSD(), scheduler, process_table=table)
    return env, table, queue


def test_priority_weight_range():
    assert priority_weight(0) == 8
    assert priority_weight(7) == 1
    assert [priority_weight(p) for p in range(8)] == [8, 7, 6, 5, 4, 3, 2, 1]


def test_requests_grouped_by_submitter():
    cfq = CFQ()
    env, table, queue = make_stack(cfq)
    a, b = table.spawn("a"), table.spawn("b")

    def proc():
        events = [
            queue.submit(BlockRequest(READ, 0, 1, a)),
            queue.submit(BlockRequest(READ, 100, 1, b)),
            queue.submit(BlockRequest(READ, 1, 1, a)),
        ]
        for e in events:
            yield e

    env.process(proc())
    env.run()
    assert queue.completed == 3
    assert set(cfq.disk_time) == {a.pid, b.pid}


def test_slice_budget_scales_with_priority():
    cfq = CFQ(base_slice=0.1)
    env, table, queue = make_stack(cfq)
    high = table.spawn("high", priority=0)
    table.spawn("low", priority=7)

    def proc():
        e1 = queue.submit(BlockRequest(READ, 0, 1, high))
        yield e1

    env.process(proc())
    env.run()
    # After serving high's request, the active slice belongs to high.
    assert cfq._slice_budget == 0.1 * 8 / 4


def test_idle_class_starved_while_others_active():
    cfq = CFQ()
    env, table, queue = make_stack(cfq, device=HDD())
    normal = table.spawn("normal", priority=4)
    idle = table.spawn("idle", priority=7, idle_class=True)
    order = []

    def submit_all():
        idle_req = BlockRequest(READ, 5000, 1, idle)
        normal_reqs = [BlockRequest(READ, i * 10, 1, normal) for i in range(5)]
        events = [queue.submit(idle_req)] + [queue.submit(r) for r in normal_reqs]
        queue.bus.subscribe(BlockComplete, lambda e: order.append(e.request.submitter.name))
        for e in events:
            yield e

    env.process(submit_all())
    env.run()
    # All of normal's requests complete before the idle one.
    assert order.index("idle") == len(order) - 1


def test_anticipation_holds_disk_for_sync_reader():
    cfq = CFQ(idle_window=0.05)
    env, table, queue = make_stack(cfq, device=HDD())
    reader = table.spawn("reader")
    other = table.spawn("other")
    order = []
    queue.bus.subscribe(BlockComplete, lambda e: order.append(e.request.submitter.name))

    def reader_proc():
        # Sequential dependent reads with tiny think time.
        position = 0
        for _ in range(3):
            request = BlockRequest(READ, position, 256, reader, sync=True)
            yield queue.submit(request)
            position += 256
            yield env.timeout(0.001)  # within the idle window

    def other_proc():
        yield env.timeout(0.005)
        yield queue.submit(BlockRequest(READ, 500000, 256, other, sync=True))

    env.process(reader_proc())
    env.process(other_proc())
    env.run()
    # Anticipation keeps the reader's streak together despite the
    # competing request arriving mid-stream.
    assert order[:3] == ["reader", "reader", "reader"]


def test_anticipation_times_out():
    cfq = CFQ(idle_window=0.002)
    env, table, queue = make_stack(cfq, device=HDD())
    reader = table.spawn("reader")
    other = table.spawn("other")
    done = []

    def reader_proc():
        yield queue.submit(BlockRequest(READ, 0, 1, reader, sync=True))
        # Never issues again: anticipation must expire.

    def other_proc():
        yield env.timeout(0.001)
        yield queue.submit(BlockRequest(READ, 1000, 1, other, sync=True))
        done.append(env.now)

    env.process(reader_proc())
    env.process(other_proc())
    env.run()
    assert done, "other's request must eventually be served"
