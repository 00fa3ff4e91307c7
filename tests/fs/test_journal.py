"""Tests for the journal: transactions, ordered mode, proxy tagging."""

import random

from repro import Environment, OS, SSD, KB, MB
from repro.core.tags import CauseSet, TagManager
from repro.faults import DurabilityLog
from repro.fs.journal import Journal, Transaction
from repro.obs import SpanBuilder
from repro.obs.bus import BlockComplete, JournalCommitRecord, JournalTxnCommit
from repro.schedulers.noop import Noop
from repro.workloads import prefill_file


def make_os(**kwargs):
    env = Environment()
    machine = OS(env, device=SSD(), scheduler=Noop(), memory_bytes=512 * MB, **kwargs)
    return env, machine


def drive(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def test_metadata_joins_running_transaction():
    env, machine = make_os()
    task = machine.spawn("t")
    journal = machine.fs.journal
    txn = journal.add_metadata(task, 42)
    assert txn is journal.running
    assert 42 in txn.metadata_blocks
    assert task.pid in txn.joiners


def test_joiners_accumulate_across_tasks():
    env, machine = make_os()
    a, b = machine.spawn("a"), machine.spawn("b")
    journal = machine.fs.journal
    journal.add_metadata(a, 1)
    journal.add_metadata(b, 2)
    assert a.pid in journal.running.joiners
    assert b.pid in journal.running.joiners


def test_commit_rotates_running_transaction():
    env, machine = make_os()
    task = machine.spawn("t")
    journal = machine.fs.journal
    old = journal.add_metadata(task, 7)

    def proc():
        yield from journal.commit_running()

    drive(env, proc())
    assert old.state == Transaction.COMMITTED
    assert journal.running is not old
    assert journal.commits == 1


def test_commit_of_empty_transaction_is_noop():
    env, machine = make_os()
    journal = machine.fs.journal

    def proc():
        yield from journal.commit_running()
        return journal.commits

    assert drive(env, proc()) == 0


def test_ensure_committed_waits_for_in_flight_commit():
    env, machine = make_os()
    task = machine.spawn("t")
    journal = machine.fs.journal
    txn = journal.add_metadata(task, 9)

    def committer():
        yield from journal.commit_running()

    def waiter():
        yield env.timeout(0)  # let the committer start first
        yield from journal.ensure_committed(txn)
        return txn.state

    env.process(committer())
    p = env.process(waiter())
    env.run(until=p)
    assert p.value == Transaction.COMMITTED


def test_periodic_commit_timer():
    env, machine = make_os(fs_kwargs={"commit_interval": 1.0})
    task = machine.spawn("t")
    machine.fs.journal.add_metadata(task, 3)
    env.run(until=3.0)
    assert machine.fs.journal.commits >= 1


def test_commit_writes_go_to_journal_area():
    env, machine = make_os()
    task = machine.spawn("t")
    journal = machine.fs.journal
    journal_writes = []
    machine.block_queue.bus.subscribe(
        BlockComplete,
        lambda e: journal_writes.append(e.request.block) if e.request.metadata else None
    )
    journal.add_metadata(task, 5)

    def proc():
        yield from journal.commit_running()

    drive(env, proc())
    assert journal_writes
    for block in journal_writes:
        assert journal.area_start <= block < journal.area_start + journal.area_blocks


def test_journal_head_wraps():
    env, machine = make_os(fs_kwargs={"journal_blocks": 16})
    journal = machine.fs.journal
    first = journal._advance_journal_head(10)
    second = journal._advance_journal_head(10)  # must wrap
    assert first == journal.area_start
    assert second == journal.area_start


def test_transaction_of_finds_membership():
    env, machine = make_os()
    task = machine.spawn("t")
    journal = machine.fs.journal
    journal.add_metadata(task, 11, ordered_inode=77)
    assert journal.transaction_of(77, None) is journal.running
    assert journal.transaction_of(0, 11) is journal.running
    assert journal.transaction_of(0, 999) is None


def test_full_integration_tags_joiners_on_journal_writes():
    env, machine = make_os()
    task = machine.spawn("app")
    journal = machine.fs.journal
    txn = journal.add_metadata(task, 13)
    causes = journal.journal_write_causes(txn)
    assert task.pid in causes


def test_one_commit_at_a_time_serializes():
    env, machine = make_os()
    a, b = machine.spawn("a"), machine.spawn("b")
    journal = machine.fs.journal
    txn1 = journal.add_metadata(a, 1)
    finish_order = []

    def commit1():
        yield from journal.ensure_committed(txn1)
        finish_order.append("txn1")

    def commit2():
        yield env.timeout(0)  # arrive while txn1 commits
        txn2 = journal.add_metadata(b, 2)
        yield from journal.ensure_committed(txn2)
        finish_order.append("txn2")

    env.process(commit1())
    p = env.process(commit2())
    env.run(until=p)
    assert finish_order == ["txn1", "txn2"]


def test_checkpointer_writes_metadata_in_place():
    """Committed metadata is eventually checkpointed outside the journal."""
    env, machine = make_os(
        fs_kwargs={"commit_interval": 0.5, "checkpoint_delay": 1.0}
    )
    task = machine.spawn("t")
    in_place = []
    journal = machine.fs.journal
    machine.block_queue.bus.subscribe(
        BlockComplete,
        lambda e: in_place.append(e.request.block)
        if e.request.metadata and e.request.block < journal.area_start
        else None
    )
    journal.add_metadata(task, 3)

    def proc():
        yield from journal.commit_running()
        yield env.timeout(5.0)

    drive(env, proc())
    assert 3 in in_place  # the metadata block was written at its home


def test_writeback_proxy_not_set_for_partial_integration():
    """XFS (partial): delayed allocation during writeback is attributed
    to the writeback task, not the apps — the fig 17 leak."""
    from repro.fs.xfs import XFS

    env, machine = make_os(fs_class=XFS)
    app = machine.spawn("app")

    def proc():
        handle = yield from machine.creat(app, "/f")
        yield from handle.append(64 * KB)
        pages = machine.cache.dirty_pages_of(handle.inode.id)
        machine.fs.writepages(machine.writeback.task, handle.inode, pages)
        txn = machine.fs.journal.running
        # The allocation joined the txn under the *pdflush* identity.
        return machine.writeback.task.pid in txn.joiners, app.pid in txn.joiners

    proxy_blamed, app_blamed = drive(env, proc())
    assert proxy_blamed
    # app joined earlier via its own mtime update, so it may appear too;
    # the essential defect is that the proxy shows up at all.


def test_ext4_writeback_proxy_attributes_to_apps():
    env, machine = make_os()
    app = machine.spawn("app")

    def proc():
        handle = yield from machine.creat(app, "/f")
        yield from handle.append(64 * KB)
        pages = machine.cache.dirty_pages_of(handle.inode.id)
        machine.fs.writepages(machine.writeback.task, handle.inode, pages)
        txn = machine.fs.journal.running
        return machine.writeback.task.pid in txn.joiners

    assert drive(env, proc()) is False  # full integration: proxy tagged


def test_logical_journal_commits_are_compact():
    """XFS logical logging: many metadata records pack per log block."""
    from repro.fs.journal import LogicalJournal, Transaction as Txn

    env, machine = make_os()
    journal = machine.fs.journal  # physical (jbd2)
    txn = Txn(env)
    for block in range(40):
        txn.metadata_blocks.add(block)
    physical = journal.commit_size(txn)

    from repro.fs.xfs import XFS

    env2, machine2 = make_os(fs_class=XFS)
    logical = machine2.fs.journal.commit_size(txn)
    assert isinstance(machine2.fs.journal, LogicalJournal)
    assert physical == 42          # descriptor + 40 buffers + commit
    assert logical == 4            # ceil(40/16) records + commit
    assert logical < physical / 5


def test_logical_journal_minimum_one_record_block():
    from repro.fs.journal import LogicalJournal, Transaction as Txn
    from repro.fs.xfs import XFS

    env, machine = make_os(fs_class=XFS)
    txn = Txn(env)
    txn.metadata_blocks.add(1)
    assert machine.fs.journal.commit_size(txn) == 2


def fsync_appends(machine, task, rounds):
    """A large file (2048 blocks), then *rounds* 4 KB append+fsync commits."""
    handle = yield from prefill_file(machine, task, "/big", 8 * MB, drop=False)
    for _ in range(rounds):
        yield from handle.append(4 * KB)
        yield from handle.fsync()


def spy_commit_records(monkeypatch):
    calls = []
    snapshot = Journal._commit_record

    def spy(journal, txn):
        calls.append(txn.tid)
        return snapshot(journal, txn)

    monkeypatch.setattr(Journal, "_commit_record", spy)
    return calls


def test_commits_build_no_snapshots_without_a_durability_log(monkeypatch):
    calls = spy_commit_records(monkeypatch)
    env, machine = make_os()
    SpanBuilder.attach(machine)  # traced runs do not subscribe
    task = machine.spawn("t")
    drive(env, fsync_appends(machine, task, rounds=20))
    assert machine.fs.journal.commits >= 20
    assert not machine.bus.listeners(JournalCommitRecord)
    assert calls == []


def test_durability_log_keeps_one_snapshot_per_commit(monkeypatch):
    calls = spy_commit_records(monkeypatch)
    env, machine = make_os()
    log = DurabilityLog(machine.block_queue)
    # Block maps as they stand when each commit record is durable: the
    # commit event follows the record at the same instant.
    expected = {}

    def on_commit(event):
        inode = machine.fs.lookup("/big")
        blocks = inode.block_map.values() if event.ordered_inodes else ()
        expected[event.tid] = frozenset(blocks)

    machine.bus.subscribe(JournalTxnCommit, on_commit)
    task = machine.spawn("t")
    drive(env, fsync_appends(machine, task, rounds=20))

    records = log.commit_records
    tids = [record.tid for record in records]
    assert len(records) == machine.fs.journal.commits >= 20
    assert tids == sorted(tids) == calls
    assert {record.tid: record.data_blocks for record in records} == expected
    assert len(records[-1].data_blocks) == 2048 + 20


def test_skipped_repricing_matches_pricing_every_join():
    """add_metadata prices a transaction's tag only on its first join
    and when its joiner set grows; a seeded mix of joins, proxied joins
    and commits leaves the same totals as pricing it on every join."""
    env, machine = make_os()
    journal, tags = machine.fs.journal, machine.fs.tags
    writers = [machine.spawn(f"w{i}") for i in range(5)]
    proxy = machine.spawn("flusher", kernel=True)
    reference = TagManager()
    seen = []
    rng = random.Random(11)

    def commit():
        yield from journal.commit_running()

    for _ in range(600):
        if rng.random() < 0.04:
            drive(env, commit())
        else:
            task = rng.choice(writers + [proxy])
            if task is proxy:
                tags.set_proxy(proxy, CauseSet.of(*rng.sample(writers, 2)))
            txn = journal.add_metadata(task, rng.randrange(40))
            tags.clear_proxy(proxy)
            reference.account_tag(txn, txn.joiners)
            if txn not in seen:
                seen.append(txn)
        for txn in seen:
            if txn.state == Transaction.COMMITTED and id(txn) in reference._allocations:
                reference.release_tag(txn)
        assert (tags.bytes_allocated, tags.max_bytes_allocated, tags.live_tags) == (
            reference.bytes_allocated, reference.max_bytes_allocated, reference.live_tags,
        )
    assert journal.commits > 10 and tags.max_bytes_allocated > tags.TAG_OVERHEAD_BASE
