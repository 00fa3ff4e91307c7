"""Smoke tests for repr/debug output (useful in logs, never crashing)."""

from repro.block.request import BlockRequest, READ
from repro.cache.page import PageKey
from repro.core.tags import CauseSet
from repro.devices import DeviceStats, HDD
from repro.fs.inode import Inode
from repro.fs.journal import Transaction
from repro.proc import Task
from repro.sim import Environment


def test_reprs_do_not_crash_and_carry_identity():
    task = Task("worker", priority=2)
    assert "worker" in repr(task)

    causes = CauseSet([3, 1, 2])
    assert repr(causes) == "CauseSet([1, 2, 3])"

    request = BlockRequest(READ, 5, 2, task)
    text = repr(request)
    assert "read" in text and "worker" in text

    inode = Inode("/x", is_dir=False)
    assert "/x" in repr(inode)

    env = Environment()
    txn = Transaction(env)
    assert "running" in repr(txn)

    stats = DeviceStats()
    assert "reads=0" in repr(stats)


def test_page_repr_reflects_state():
    env = Environment()
    from repro.cache.cache import PageCache
    from repro.core.tags import TagManager
    from repro.units import MB

    cache = PageCache(env, TagManager(), memory_bytes=16 * MB)
    page = cache.mark_dirty(PageKey(1, 2), Task("t"))
    assert "dirty" in repr(page)
    page.write_submitted()
    assert "wb" in repr(page)


def test_device_stats_totals():
    disk = HDD()
    disk.service_time("read", 0, 2)
    disk.service_time("write", 10, 3)
    assert disk.stats.total_requests == 2
