"""Additional CFQ behaviours: idle-only service, slice rotation."""

from repro.block import BlockQueue, BlockRequest
from repro.block.request import READ
from repro.devices import HDD, SSD
from repro.obs.bus import BlockComplete
from repro.proc import ProcessTable
from repro.schedulers.cfq import CFQ
from repro.sim import Environment


def make_stack(scheduler, device=None):
    env = Environment()
    table = ProcessTable()
    queue = BlockQueue(env, device or SSD(), scheduler, process_table=table)
    return env, table, queue


def test_idle_class_served_when_alone():
    """Idle tasks do get the disk when nobody else wants it."""
    cfq = CFQ()
    env, table, queue = make_stack(cfq)
    idle = table.spawn("idle", idle_class=True)
    done = []

    def proc():
        yield queue.submit(BlockRequest(READ, 0, 1, idle))
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done and done[0] < 1.0


def test_slices_rotate_across_queues():
    """With several active queues, each eventually gets service."""
    cfq = CFQ(base_slice=0.01)
    env, table, queue = make_stack(cfq, device=HDD())
    served = set()
    queue.bus.subscribe(BlockComplete, lambda e: served.add(e.request.submitter.name))

    def worker(task, base):
        for i in range(4):
            yield queue.submit(BlockRequest(READ, base + i * 100, 64, task, sync=True))

    for name in ("a", "b", "c"):
        task = table.spawn(name)
        env.process(worker(task, hash(name) % 100000))
    env.run()
    assert served == {"a", "b", "c"}


def test_disk_time_accounting_accumulates():
    cfq = CFQ()
    env, table, queue = make_stack(cfq, device=HDD())
    task = table.spawn("t")

    def proc():
        yield queue.submit(BlockRequest(READ, 0, 2048, task))

    env.process(proc())
    env.run()
    assert cfq.disk_time[task.pid] > 0.05  # 8 MB on an HDD


def test_higher_priority_gets_more_disk_time_under_contention():
    cfq = CFQ(base_slice=0.05)
    env, table, queue = make_stack(cfq, device=HDD())
    high = table.spawn("high", priority=0)
    low = table.spawn("low", priority=7)

    def stream(task, base):
        # Keep a deep backlog queued so slices are always contested.
        events = [
            queue.submit(BlockRequest(READ, base + i * 256, 256, task, sync=True))
            for i in range(100)
        ]
        for event in events:
            yield event

    env.process(stream(high, 0))
    env.process(stream(low, 60_000))
    # Measure mid-contention, before either backlog drains.
    env.run(until=0.8)
    assert cfq.disk_time[high.pid] > 1.5 * cfq.disk_time.get(low.pid, 1e-9)
