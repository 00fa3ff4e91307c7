"""Tests for the O_DIRECT read/write paths."""


from repro import Environment, OS, SSD, KB, MB
from repro.cache.page import PageKey
from repro.schedulers import Noop


def make_os():
    env = Environment()
    machine = OS(env, device=SSD(), scheduler=Noop(), memory_bytes=256 * MB)
    return env, machine


def drive(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def test_direct_write_is_synchronous_and_uncached():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        writes_before = machine.device.stats.writes
        n = yield from machine.write(task, handle.inode, 0, 64 * KB, direct=True)
        return n, machine.device.stats.writes - writes_before, handle.inode

    n, writes, inode = drive(env, proc())
    assert n == 64 * KB
    assert writes >= 1  # hit the device before returning
    assert machine.cache.dirty_bytes_of(inode.id) == 0
    assert not machine.cache.contains(PageKey(inode.id, 0))


def test_direct_write_allocates_immediately():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from machine.write(task, handle.inode, 0, 16 * KB, direct=True)
        return len(handle.inode.block_map)

    assert drive(env, proc()) == 4  # no delayed allocation without a cache


def test_direct_read_bypasses_cache():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from machine.write(task, handle.inode, 0, 64 * KB, direct=True)
        reads_before = machine.device.stats.reads
        n = yield from machine.read(task, handle.inode, 0, 64 * KB, direct=True)
        reads_mid = machine.device.stats.reads
        # Reading again goes to the device AGAIN: nothing was cached.
        yield from machine.read(task, handle.inode, 0, 64 * KB, direct=True)
        return n, reads_mid - reads_before, machine.device.stats.reads - reads_mid

    n, first, second = drive(env, proc())
    assert n == 64 * KB
    assert first >= 1
    assert second >= 1
    assert len(machine.cache) == 0


def test_direct_write_overwrites_existing_blocks():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from machine.write(task, handle.inode, 0, 16 * KB, direct=True)
        blocks_first = dict(handle.inode.block_map)
        yield from machine.write(task, handle.inode, 0, 16 * KB, direct=True)
        return blocks_first, dict(handle.inode.block_map)

    first, second = drive(env, proc())
    assert first == second  # same blocks reused, no re-allocation


def test_direct_read_of_unwritten_range_is_free():
    env, machine = make_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        handle.inode.size = 1 * MB  # sparse file
        reads_before = machine.device.stats.reads
        n = yield from machine.read(task, handle.inode, 0, 64 * KB, direct=True)
        return n, machine.device.stats.reads - reads_before

    n, reads = drive(env, proc())
    assert n == 64 * KB
    assert reads == 0


def test_direct_write_over_a_delayed_allocation_page_leaks_no_block():
    """A buffered write leaves page 0 dirty and unallocated; an O_DIRECT
    write over it allocates its block, and the dirty page's writeback
    goes to that block instead of allocating a second one."""
    env, machine = make_os()
    task = machine.spawn("t")
    allocator = machine.fs.allocator

    def proc():
        handle = yield from machine.creat(task, "/f")
        inode = handle.inode
        yield from handle.pwrite(0, 4 * KB)
        assert len(inode.block_map) == 0  # delayed allocation
        yield from handle.pwrite(0, 4 * KB, direct=True)
        block = inode.block_map[0]
        assert allocator.allocated == 1
        assert machine.cache.dirty_pages_of(inode.id)[0].disk_block == block
        writes_before = machine.device.stats.writes
        yield from handle.fsync()
        return inode, block, machine.device.stats.writes - writes_before

    inode, block, writes = drive(env, proc())
    assert dict(inode.block_map) == {0: block}
    assert allocator.allocated == 1
    assert writes >= 1  # the dirty page still went to the device
    assert machine.cache.dirty_bytes_of(inode.id) == 0
