"""Integration tests for the filesystem: write/read/fsync/journal."""

import pytest

from repro import Environment, OS, HDD, SSD, KB, MB
from repro.cache.page import PageKey
from repro.fs.xfs import XFS
from repro.obs.bus import BlockComplete
from repro.schedulers.noop import Noop
from repro.units import PAGE_SIZE


def make_os(**kwargs):
    env = Environment()
    kwargs.setdefault("device", SSD())
    kwargs.setdefault("scheduler", Noop())
    return env, OS(env, **kwargs)


def drive(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def test_create_and_lookup():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        yield from machine.creat(task, "/a")
        return machine.fs.lookup("/a")

    inode = drive(env, proc())
    assert inode is not None
    assert inode.path == "/a"


def test_create_duplicate_rejected():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        yield from machine.creat(task, "/a")
        with pytest.raises(FileExistsError):
            yield from machine.creat(task, "/a")

    drive(env, proc())


def test_create_in_missing_directory_rejected():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        with pytest.raises(FileNotFoundError):
            yield from machine.creat(task, "/no/such/file")
        yield env.timeout(0)

    drive(env, proc())


def test_write_extends_size_and_dirties_pages():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(10 * KB)
        return handle.inode

    inode = drive(env, proc())
    assert inode.size == 10 * KB
    assert machine.cache.dirty_bytes_of(inode.id) == 3 * PAGE_SIZE


def test_write_is_buffered_not_synchronous():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        before = machine.device.stats.writes
        yield from handle.append(1 * MB)
        return machine.device.stats.writes - before

    writes_during = drive(env, proc())
    assert writes_during == 0  # nothing reached the disk yet


def test_read_back_from_cache():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(64 * KB)
        n = yield from handle.pread(0, 64 * KB)
        return n

    assert drive(env, proc()) == 64 * KB
    assert machine.cache.misses == 0


def test_read_beyond_eof_truncated():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(10 * KB)
        n = yield from handle.pread(8 * KB, 100 * KB)
        return n

    assert drive(env, proc()) == 2 * KB


def test_fsync_persists_and_allocates():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(1 * MB)
        yield from handle.fsync()
        return handle.inode

    inode = drive(env, proc())
    assert machine.cache.dirty_bytes_of(inode.id) == 0
    assert len(inode.block_map) == 256  # all pages allocated
    assert machine.device.stats.writes > 0
    assert machine.fs.journal.commits >= 1


def test_delayed_allocation_until_flush():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(64 * KB)
        unallocated = len(handle.inode.block_map)
        yield from handle.fsync()
        return unallocated, len(handle.inode.block_map)

    before, after = drive(env, proc())
    assert before == 0  # locations unknown while buffered
    assert after == 16


def test_sequential_file_allocated_contiguously():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(1 * MB)
        yield from handle.fsync()
        return handle.inode

    inode = drive(env, proc())
    blocks = [inode.block_map[i] for i in range(256)]
    assert blocks == list(range(blocks[0], blocks[0] + 256))


def test_cold_read_goes_to_disk():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(256 * KB)
        yield from handle.fsync()
        machine.cache.free_file(handle.inode.id)
        before = machine.device.stats.reads
        n = yield from handle.pread(0, 256 * KB)
        return n, machine.device.stats.reads - before

    n, reads = drive(env, proc())
    assert n == 256 * KB
    assert reads >= 1


def test_sparse_read_returns_zero_fill_without_io():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.pwrite(1 * MB, 4 * KB)  # sparse tail write
        before = machine.device.stats.reads
        n = yield from handle.pread(0, 64 * KB)  # the hole
        return n, machine.device.stats.reads - before

    n, reads = drive(env, proc())
    assert n == 64 * KB
    assert reads == 0


def test_unlink_discards_dirty_buffers():
    env, machine = make_os()
    task = machine.spawn("t")
    freed = []
    machine.cache.on_buffer_free = lambda inode_id, first, stop: freed.extend(
        (inode_id, i) for i in range(first, stop)
    )

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(64 * KB)
        yield from machine.close(handle)  # no live handles: free is immediate
        yield from machine.unlink(task, "/f")

    drive(env, proc())
    assert len(freed) == 16
    assert machine.cache.dirty_bytes == 0
    assert machine.fs.lookup("/f") is None


def test_journal_entanglement_fsync_commits_other_files_data():
    """Ordered mode: committing A's metadata flushes B's ordered data."""
    env, machine = make_os()
    a, b = machine.spawn("a"), machine.spawn("b")

    def proc():
        fa = yield from machine.creat(a, "/a")
        fb = yield from machine.creat(b, "/b")
        # B buffers data whose delayed allocation will join the running
        # transaction once writeback begins; force that by starting an
        # fsync from B concurrently with A's.
        yield from fb.append(1 * MB)
        # B's writepages runs first (alloc joins txn), A commits after.
        pages = machine.cache.dirty_pages_of(fb.inode.id)
        machine.fs.writepages(b, fb.inode, pages)
        yield from fa.append(4 * KB)
        yield from fa.fsync()
        return machine.cache.dirty_bytes_of(fb.inode.id)

    b_dirty_after = drive(env, proc())
    # A's fsync committed the shared transaction; B's ordered data had
    # to reach the disk first even though A never touched /b.
    assert b_dirty_after == 0


def test_mtime_updates_join_running_transaction():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(4 * KB)
        txn = machine.fs.journal.running
        return handle.inode.metadata_block in txn.metadata_blocks

    assert drive(env, proc())


def test_xfs_partial_integration_mislabels_journal_writes():
    """Figure 17's cause: XFS journal I/O is tagged with the journal
    task, not the application that caused it."""
    env_e, ext4_machine = make_os()
    env_x, xfs_machine = make_os(fs_class=XFS)

    results = {}
    for name, env, machine in (("ext4", env_e, ext4_machine), ("xfs", env_x, xfs_machine)):
        task = machine.spawn("app")
        journal_causes = []
        machine.block_queue.bus.subscribe(
            BlockComplete,
            lambda e, acc=journal_causes: acc.append((e.request.metadata, e.request.causes))
        )

        def proc(machine=machine, task=task):
            handle = yield from machine.creat(task, "/f")
            yield from handle.append(4 * KB)
            yield from handle.fsync()
            return task

        task_out = drive(env, proc())
        meta = [causes for is_meta, causes in journal_causes if is_meta]
        assert meta, f"{name}: no journal writes observed"
        results[name] = (task_out, meta)

    ext4_task, ext4_meta = results["ext4"]
    xfs_task, xfs_meta = results["xfs"]
    assert any(ext4_task.pid in causes for causes in ext4_meta)
    assert not any(xfs_task.pid in causes for causes in xfs_meta)


def test_fsync_on_hdd_slower_than_ssd():
    def measure(device):
        env = Environment()
        machine = OS(env, device=device, scheduler=Noop())
        task = machine.spawn("t")

        def proc():
            handle = yield from machine.creat(task, "/f")
            yield from handle.append(4 * KB)
            start = env.now
            yield from handle.fsync()
            return env.now - start

        return drive(env, proc())

    assert measure(HDD()) > measure(SSD())


def test_readahead_prefetches_on_sequential_reads():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(2 * MB)
        yield from handle.fsync()
        machine.cache.free_file(handle.inode.id)
        # Two sequential 4 KB reads: the second triggers readahead.
        yield from handle.pread(0, 4 * KB)
        yield from handle.pread(4 * KB, 4 * KB)
        requests_before = machine.device.stats.reads
        # The next reads inside the readahead window are cache hits.
        yield from handle.pread(8 * KB, 4 * KB)
        yield from handle.pread(12 * KB, 4 * KB)
        return machine.device.stats.reads - requests_before

    assert drive(env, proc()) == 0


def test_readahead_not_triggered_by_random_reads():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(2 * MB)
        yield from handle.fsync()
        machine.cache.free_file(handle.inode.id)
        yield from handle.pread(1 * MB, 4 * KB)   # jump
        yield from handle.pread(0, 4 * KB)        # jump
        from repro.cache.page import PageKey
        # No prefetch beyond the touched pages.
        return machine.cache.contains(PageKey(handle.inode.id, 1))

    assert drive(env, proc()) is False


def test_readahead_can_be_disabled():
    env, machine = make_os()
    machine.fs.readahead_pages = 0
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(1 * MB)
        yield from handle.fsync()
        machine.cache.free_file(handle.inode.id)
        yield from handle.pread(0, 4 * KB)
        yield from handle.pread(4 * KB, 4 * KB)
        from repro.cache.page import PageKey
        return machine.cache.contains(PageKey(handle.inode.id, 5))

    assert drive(env, proc()) is False


def test_truncate_shrinks_and_frees_blocks():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(1 * MB)
        yield from handle.fsync()
        free_before = machine.fs.allocator.free_blocks
        yield from machine.truncate(task, handle.inode, 256 * KB)
        return handle.inode, machine.fs.allocator.free_blocks - free_before

    inode, blocks_freed = drive(env, proc())
    assert inode.size == 256 * KB
    assert blocks_freed == (1 * MB - 256 * KB) // PAGE_SIZE
    assert len(inode.block_map) == 64


def test_truncate_discards_dirty_tail_with_hook():
    env, machine = make_os()
    task = machine.spawn("t")
    freed = []
    machine.cache.on_buffer_free = lambda inode_id, first, stop: freed.extend(range(first, stop))

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(64 * KB)  # dirty, never flushed
        yield from machine.truncate(task, handle.inode, 0)
        return machine.cache.dirty_bytes_of(handle.inode.id)

    assert drive(env, proc()) == 0
    assert sorted(freed) == list(range(16))


def test_truncate_rejects_negative():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        with pytest.raises(ValueError):
            yield from machine.truncate(task, handle.inode, -1)

    drive(env, proc())


def test_truncate_sparse_extend():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from machine.truncate(task, handle.inode, 1 * MB)
        n = yield from handle.pread(0, 64 * KB)  # zero-fill, no I/O
        return handle.inode.size, n

    size, n = drive(env, proc())
    assert size == 1 * MB
    assert n == 64 * KB
