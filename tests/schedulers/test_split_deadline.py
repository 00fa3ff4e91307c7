"""Unit tests for Split-Deadline's fsync scheduling."""


from repro import Environment, OS, SSD, HDD, KB, MB
from repro.obs.bus import BlockComplete
from repro.schedulers import SplitDeadline


def make_os(device=None, writeback_enabled=True, **kwargs):
    env = Environment()
    scheduler = SplitDeadline(**kwargs)
    machine = OS(
        env, device=device or SSD(), scheduler=scheduler,
        memory_bytes=512 * MB, writeback_enabled=writeback_enabled,
    )
    return env, machine, scheduler


def drive(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def test_small_fsync_issues_immediately_when_quiet():
    env, machine, sched = make_os(fsync_deadline=1.0)
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(4 * KB)
        start = env.now
        yield from handle.fsync()
        return env.now - start

    latency = drive(env, proc())
    assert latency < 0.1  # far below the 1 s deadline: no pointless delay


def test_big_fsync_is_deferred_and_drained():
    env, machine, sched = make_os(big_fsync_threshold=256 * KB)
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(8 * MB)
        yield from handle.fsync()
        return machine.cache.dirty_bytes_of(handle.inode.id)

    remaining = drive(env, proc())
    assert sched.fsyncs_deferred == 1
    assert remaining == 0  # durable nonetheless


def test_small_fsyncs_wait_while_big_drain_active():
    env, machine, sched = make_os(
        device=HDD(), big_fsync_threshold=256 * KB, fsync_deadline=0.2
    )
    big, small = machine.spawn("big"), machine.spawn("small")
    sched.set_fsync_deadline(small, 0.2)
    sched.set_fsync_deadline(big, 10.0)
    latencies = []

    def big_proc():
        handle = yield from machine.creat(big, "/big")
        yield from handle.append(16 * MB)
        yield from handle.fsync()

    def small_proc():
        handle = yield from machine.creat(small, "/small")
        yield env.timeout(0.05)  # during the drain
        yield from handle.append(4 * KB)
        start = env.now
        yield from handle.fsync()
        latencies.append(env.now - start)

    env.process(big_proc())
    env.process(small_proc())
    env.run(until=30.0)
    # The small fsync completed within (roughly) its deadline even
    # while the 16 MB drain was in flight.
    assert latencies and latencies[0] < 0.5


def test_per_task_deadlines():
    env, machine, sched = make_os()
    a, b = machine.spawn("a"), machine.spawn("b")
    sched.set_fsync_deadline(a, 0.01)
    sched.set_read_deadline(b, 0.123)
    assert sched.fsync_deadline_for(a) == 0.01
    assert sched.fsync_deadline_for(b) == sched.fsync_deadline
    assert sched.read_deadline_for(b) == 0.123


def test_own_writeback_flushes_without_pdflush():
    env, machine, sched = make_os(own_writeback=True, writeback_enabled=False)
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(16 * MB)  # over the 8 MB low water
        yield env.timeout(5.0)
        return machine.cache.dirty_bytes

    remaining = drive(env, proc())
    assert remaining < 16 * MB  # the scheduler's own flusher worked


def test_dirty_cap_throttles_writers_in_pdflush_mode():
    env, machine, sched = make_os(dirty_cap=1 * MB)
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        start = env.now
        for _ in range(8):
            yield from handle.append(1 * MB)
        return env.now - start

    elapsed = drive(env, proc())
    assert elapsed > 0.01  # writes blocked at the cap, waiting on flush


def test_block_level_sync_writes_before_async():
    env, machine, sched = make_os(device=HDD())
    task = machine.spawn("t")
    from repro.block.request import BlockRequest, READ, WRITE

    order = []
    machine.block_queue.bus.subscribe(
        BlockComplete,
        lambda e: order.append((e.request.op, e.request.sync))
    )

    def proc():
        first = machine.block_queue.submit(BlockRequest(READ, 0, 2048, task))
        yield env.timeout(0.001)
        e_async = machine.block_queue.submit(BlockRequest(WRITE, 5000, 1, task, sync=False))
        e_sync = machine.block_queue.submit(BlockRequest(WRITE, 9000, 1, task, sync=True))
        yield first
        yield e_async
        yield e_sync

    drive(env, proc())
    assert order[1] == (WRITE, True)
    assert order[2] == (WRITE, False)


def test_expired_read_preempts_sync_writes():
    env, machine, sched = make_os(device=HDD(), read_deadline=0.001)
    task = machine.spawn("t")
    from repro.block.request import BlockRequest, READ, WRITE

    order = []
    machine.block_queue.bus.subscribe(BlockComplete, lambda e: order.append(e.request.op))

    def proc():
        first = machine.block_queue.submit(BlockRequest(WRITE, 0, 2048, task, sync=True))
        yield env.timeout(0.01)
        e_read = machine.block_queue.submit(BlockRequest(READ, 5000, 1, task))
        yield env.timeout(0.05)  # the read's 1 ms deadline expires
        e_write = machine.block_queue.submit(BlockRequest(WRITE, 9000, 1, task, sync=True))
        yield first
        yield e_read
        yield e_write

    drive(env, proc())
    assert order[1] == READ


def test_deadline_imminent_considers_read_fifo_and_fsyncs():
    env, machine, sched = make_os(device=HDD())
    task = machine.spawn("t")
    assert not sched._deadline_imminent()
    # A registered fsync deadline within the margin flips it.
    sched._active_fsyncs[task.pid] = env.now + 0.01
    assert sched._deadline_imminent(margin=0.05)
    sched._active_fsyncs[task.pid] = env.now + 10.0
    assert not sched._deadline_imminent(margin=0.05)


def test_flush_estimate_scales_with_dirty_bytes():
    env, machine, sched = make_os()
    small = sched._flush_estimate(1 * MB)
    big = sched._flush_estimate(64 * MB)
    assert big > small > sched.commit_overhead


def test_own_writeback_flushes_aged_data_below_low_water():
    env, machine, sched = make_os(own_writeback=True, writeback_enabled=False)
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(1 * MB)  # tiny: below the low-water mark
        yield env.timeout(8.0)  # but it ages past 5 s
        return machine.cache.dirty_bytes

    assert drive(env, proc()) == 0
