"""Unit tests for AFQ's split-level mechanics."""


from repro import Environment, OS, SSD, HDD, KB, MB
from repro.block.request import READ, BlockRequest
from repro.obs.bus import BlockComplete
from repro.schedulers import AFQ


def make_os(device=None, **afq_kwargs):
    env = Environment()
    scheduler = AFQ(**afq_kwargs)
    machine = OS(env, device=device or SSD(), scheduler=scheduler, memory_bytes=512 * MB)
    return env, machine, scheduler


def drive(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def test_reads_not_parked_at_syscall_level():
    env, machine, afq = make_os()
    task = machine.spawn("r")
    assert afq.syscall_entry(task, "read", {}) is None


def test_write_parks_and_is_admitted():
    env, machine, afq = make_os()
    task = machine.spawn("w")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(64 * KB)
        return handle.inode.size

    assert drive(env, proc()) == 64 * KB


def test_write_window_blocks_until_drained():
    env, machine, afq = make_os(write_window=1 * MB)
    task = machine.spawn("w")

    def proc():
        handle = yield from machine.creat(task, "/f")
        start = env.now
        # 8 x 1 MB through a 1 MB window: must wait for drains between.
        for _ in range(8):
            yield from handle.append(1 * MB)
        return env.now - start

    elapsed = drive(env, proc())
    assert elapsed > 0.01  # had to wait for the window
    assert machine.writeback.pages_flushed > 0


def test_fsync_slots_serialize_fsyncs():
    env, machine, afq = make_os(fsync_slots=1)
    a, b = machine.spawn("a"), machine.spawn("b")
    finished = []

    def syncer(task, path):
        handle = yield from machine.creat(task, path)
        yield from handle.append(4 * KB)
        yield from handle.fsync()
        finished.append((task.name, env.now))

    env.process(syncer(a, "/fa"))
    env.process(syncer(b, "/fb"))
    env.run(until=30.0)
    assert len(finished) == 2
    assert finished[0][1] < finished[1][1]  # strictly ordered


def test_block_writes_dispatch_before_reads():
    """Beneath the journal, writes must not be held (priority inversion)."""
    afq = AFQ()
    env = Environment()
    machine = OS(env, device=HDD(), scheduler=afq)
    task = machine.spawn("t")
    from repro.block.request import BlockRequest, READ, WRITE

    order = []
    machine.block_queue.bus.subscribe(BlockComplete, lambda e: order.append(e.request.op))

    def proc():
        # Occupy the device, then queue one read and one write.
        first = machine.block_queue.submit(BlockRequest(READ, 0, 2048, task))
        yield env.timeout(0.001)
        e_read = machine.block_queue.submit(BlockRequest(READ, 5000, 1, task))
        e_write = machine.block_queue.submit(BlockRequest(WRITE, 9000, 1, task))
        yield first
        yield e_read
        yield e_write

    drive(env, proc())
    assert order[1] == "write"


def test_completion_charges_true_causes_not_submitter():
    env, machine, afq = make_os()
    app = machine.spawn("app")
    from repro.block.request import BlockRequest, WRITE
    from repro.core.tags import CauseSet

    pdflush = machine.writeback.task

    def proc():
        request = BlockRequest(
            WRITE, 0, 8, pdflush, causes=CauseSet([app.pid])
        )
        yield machine.block_queue.submit(request)

    drive(env, proc())
    state = afq.stride.client_by_pid(app.pid)
    assert state is not None and state.pass_value > 0
    assert afq.stride.client_by_pid(pdflush.pid) is None  # proxy not charged


def test_idle_task_blocked_while_system_busy():
    env, machine, afq = make_os()
    busy = machine.spawn("busy")
    idle = machine.spawn("idle", idle_class=True)
    progress = []

    def busy_writer():
        handle = yield from machine.creat(busy, "/busy")
        for _ in range(50):
            yield from handle.append(64 * KB)
            yield env.timeout(0.001)

    def idle_writer():
        handle = yield from machine.creat(idle, "/idle")
        for i in range(5):
            yield from handle.append(4 * KB)
            progress.append(env.now)

    env.process(busy_writer())
    env.process(idle_writer())
    env.run(until=0.04)
    early_progress = len(progress)
    # The busy writer finishes; idle proceeds in the quiet period.
    env.run(until=5.0)
    assert len(progress) == 5
    assert early_progress < 5  # it was being held while busy ran


def test_stride_pacing_limits_burst_ahead_of_floor():
    env, machine, afq = make_os(write_window=256 * MB, burst_per_ticket=64 * KB)
    fast = machine.spawn("fast", priority=0)
    slow = machine.spawn("slow", priority=7)
    written = {"fast": 0, "slow": 0}

    def writer(task, key):
        handle = yield from machine.creat(task, f"/{key}")
        while env.now < 0.3:
            n = yield from handle.append(64 * KB)
            written[key] += n

    env.process(writer(fast, "fast"))
    env.process(writer(slow, "slow"))
    env.run(until=0.3)
    # Both progressed, at roughly ticket-proportional (8:1) rates.
    assert written["slow"] > 0
    ratio = written["fast"] / written["slow"]
    assert 4 < ratio < 16


def test_floor_client_can_issue_oversized_write():
    """A write larger than a client's entire burst allowance must not
    deadlock it (work conservation: the floor client always runs)."""
    env, machine, afq = make_os(burst_per_ticket=64 * KB)
    low = machine.spawn("low", priority=7)  # 1 ticket: 64 KB allowance

    def proc():
        handle = yield from machine.creat(low, "/f")
        # 4 MB >> the 64 KB allowance; must still complete.
        yield from handle.pwrite(0, 4 * MB)
        return handle.inode.size

    assert drive(env, proc()) == 4 * MB


def test_memory_overwriters_run_at_memory_speed():
    """Figure 11(d): no disk contention, so nobody should be paced."""
    env, machine, afq = make_os()
    from repro.workloads import sequential_overwriter
    from repro.metrics import ThroughputTracker

    trackers = []
    for prio in range(4):
        task = machine.spawn(f"m{prio}", priority=prio)
        tracker = ThroughputTracker()
        trackers.append(tracker)
        env.process(
            sequential_overwriter(machine, task, f"/m{prio}", 0.5, region=2 * MB,
                                  tracker=tracker)
        )
    env.run(until=0.5)
    total = sum(t.rate(0.5) for t in trackers) / MB
    assert total > 1000  # memory speed, not disk speed (~110 MB/s)


def test_idle_gate_sees_every_outstanding_request():
    """At depth > 1 a busy request behind an idle one still blocks idle."""
    env = Environment()
    afq = AFQ()
    machine = OS(env, device=SSD(), scheduler=afq, memory_bytes=64 * MB, queue_depth=4)
    idle = machine.spawn("idle", idle_class=True)
    busy = machine.spawn("busy")
    idle_req = BlockRequest(READ, 0, 1, idle)
    busy_req = BlockRequest(READ, 64, 1, busy)
    assert env.now - afq._last_nonidle_activity > afq.idle_grace
    for outstanding in ([idle_req, busy_req], [busy_req, idle_req]):
        machine.block_queue.outstanding[:] = outstanding
        assert afq._system_busy(idle)
    machine.block_queue.outstanding[:] = [idle_req]
    assert not afq._system_busy(idle)
