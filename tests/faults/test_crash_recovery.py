"""Power-loss crash and journal-recovery tests (ordered-mode invariant)."""


from repro import KB, MB, Environment, OS
from repro.devices import HDD, SSD
from repro.faults import (
    DurabilityLog,
    FaultInjector,
    FaultPlan,
    FaultyDevice,
    crash_and_recover,
    recover,
)
from repro.obs.bus import JournalCommitRecord
from repro.schedulers.noop import Noop
from repro.sim.rand import RandomStreams


def make_os(device=None, power_loss_at=None, seed=0, **kwargs):
    env = Environment()
    dev = device or SSD()
    if power_loss_at is not None:
        injector = FaultInjector(
            env, FaultPlan(power_loss_at=power_loss_at), RandomStreams(seed)
        )
        dev = FaultyDevice(dev, injector)
        machine = OS(env, device=dev, scheduler=Noop(), memory_bytes=256 * MB, **kwargs)
        injector.arm_power_loss()
        return env, machine
    return env, OS(env, device=dev, scheduler=Noop(), memory_bytes=256 * MB, **kwargs)


def drive(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def appender(machine, task, path, rounds, chunk=64 * KB):
    handle = yield from machine.creat(task, path)
    for _ in range(rounds):
        yield from handle.append(chunk)
        yield from handle.fsync()


def test_power_loss_halts_and_recovery_passes_invariant():
    env, machine = make_os(power_loss_at=2.0, fs_kwargs={"commit_interval": 0.5})
    log = DurabilityLog(machine.block_queue)
    tasks = [machine.spawn(f"w{i}") for i in range(3)]
    for i, task in enumerate(tasks):
        env.process(appender(machine, task, f"/f{i}", rounds=1000))

    reason = env.run()
    assert env.halted
    assert reason == 2.0
    assert env.now == 2.0
    assert machine.fs.journal.commits > 0  # work actually happened

    report = crash_and_recover(machine, log)
    assert report.invariant_ok
    assert report.dropped_pages >= 0
    # Fresh transaction state after recovery.
    assert machine.fs.journal.running.empty
    assert machine.fs.journal.committing is None


def test_power_loss_mid_commit_discards_committing_txn():
    """Cut power precisely while the journal write is on the device."""
    env, machine = make_os(device=HDD())
    log = DurabilityLog(machine.block_queue)
    task = machine.spawn("app")

    def setup():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(256 * KB)

    drive(env, setup())
    journal = machine.fs.journal
    assert not journal.running.empty
    committing = journal.running
    env.process(journal.commit_running())

    # Step the clock until the journal (metadata) write is in flight.
    queue = machine.block_queue
    while not (
        journal.committing is not None
        and queue.outstanding
        and queue.outstanding[0].metadata
    ):
        env.step()

    report = crash_and_recover(machine, log)
    assert report.discarded_committing_tid == committing.tid
    assert report.torn_request_id is not None
    assert committing.tid not in report.replayed_tids
    assert report.invariant_ok  # no commit record -> nothing to violate


def test_recovery_replays_uncheckpointed_commits():
    env, machine = make_os(fs_kwargs={"commit_interval": 0.5, "checkpoint_delay": 1e6})
    log = DurabilityLog(machine.block_queue)
    task = machine.spawn("app")
    drive(env, appender(machine, task, "/f", rounds=3))
    journal = machine.fs.journal
    assert journal.commits > 0
    committed_tids = [record.tid for record in log.commit_records]

    report = crash_and_recover(machine, log)
    assert report.invariant_ok
    assert set(report.replayed_tids) == set(committed_tids)
    assert report.replayed_metadata_blocks  # metadata reinstated in place


def test_invariant_checker_detects_fabricated_violation():
    """A forged commit referencing never-written data must be caught."""
    env, machine = make_os()
    log = DurabilityLog(machine.block_queue)
    task = machine.spawn("app")
    drive(env, appender(machine, task, "/f", rounds=2))

    log.commit_records.append(
        JournalCommitRecord(
            time=env.now,
            tid=9999,
            metadata_blocks=frozenset({1}),
            data_blocks=frozenset({424242}),  # never written
        )
    )
    report = recover(machine.fs, log)
    assert not report.invariant_ok
    assert report.violations == [(9999, [424242])]


def test_durability_log_tracks_successful_writes_only():
    from repro.block import BlockRequest
    from repro.block.request import WRITE
    from repro.proc import ProcessTable
    from repro.block.queue import BlockQueue

    env = Environment()
    table = ProcessTable()
    queue = BlockQueue(env, SSD(), Noop(), process_table=table)
    log = DurabilityLog(queue)
    task = table.spawn("t")
    request = BlockRequest(WRITE, 10, 4, task)
    queue.submit(request)
    env.run(until=request.done)
    assert log.written == {10, 11, 12, 13}
    assert log.contains(12) and not log.contains(14)
    assert len(log) == 4


def test_recovered_transactions_survive_while_running_discarded():
    env, machine = make_os(
        power_loss_at=3.0, fs_kwargs={"commit_interval": 0.5, "checkpoint_delay": 1e6}
    )
    log = DurabilityLog(machine.block_queue)
    task = machine.spawn("app")
    env.process(appender(machine, task, "/f", rounds=1000))
    env.run()
    assert env.halted

    journal = machine.fs.journal
    durable = len(log.commit_records)
    report = crash_and_recover(machine, log)
    assert report.invariant_ok
    assert len(report.replayed_tids) == durable  # nothing checkpointed yet


def test_durability_log_attached_mid_run_checks_only_commits_it_saw():
    """Commits durable before the log attached are neither kept nor checked."""
    env, machine = make_os(fs_kwargs={"checkpoint_delay": 1e6})
    journal = machine.fs.journal
    task = machine.spawn("app")
    drive(env, appender(machine, task, "/before", rounds=3))
    commits_before = journal.commits
    assert commits_before > 0

    log = DurabilityLog(machine.block_queue)
    drive(env, appender(machine, task, "/after", rounds=3))
    seen = [record.tid for record in log.commit_records]
    assert len(seen) == journal.commits - commits_before
    assert seen == sorted(seen)
    after = machine.fs.lookup("/after")
    assert set(after.block_map.values()) <= log.commit_records[-1].data_blocks

    # The log never saw /before's data reach the device; had it been
    # handed /before's commits, each would read as a violation.
    report = recover(machine.fs, log)
    assert report.invariant_ok
    assert len(report.replayed_tids) == journal.commits  # replay is the journal's own
