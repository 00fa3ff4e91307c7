"""Tests for the page cache: dirtying, hooks, eviction, accounting."""

import pytest

from repro.cache import PageCache, PageKey
from repro.core.tags import CauseSet, TagManager
from repro.obs.bus import PageDirtied, PageFreed
from repro.proc import Task
from repro.sim import Environment
from repro.units import MB, PAGE_SIZE


def make_cache(memory=16 * MB):
    env = Environment()
    tags = TagManager()
    return env, tags, PageCache(env, tags, memory_bytes=memory)


def test_cache_requires_a_page_of_memory():
    env = Environment()
    with pytest.raises(ValueError):
        PageCache(env, TagManager(), memory_bytes=100)


def test_mark_dirty_creates_tracked_page():
    env, tags, cache = make_cache()
    task = Task("w")
    page = cache.mark_dirty(PageKey(1, 0), task)
    assert page.dirty
    assert page.causes == CauseSet([task.pid])
    assert cache.dirty_bytes == PAGE_SIZE
    assert cache.dirty_pages == 1


def test_overwrite_merges_causes_and_counts():
    env, tags, cache = make_cache()
    a, b = Task("a"), Task("b")
    key = PageKey(1, 0)
    cache.mark_dirty(key, a)
    page = cache.mark_dirty(key, b)
    assert page.causes == CauseSet([a.pid, b.pid])
    assert cache.dirty_bytes == PAGE_SIZE  # still one dirty page
    assert cache.overwrites == 1


def test_proxy_dirtying_attributes_to_served_tasks():
    env, tags, cache = make_cache()
    app, pdflush = Task("app"), Task("pdflush", kernel=True)
    tags.set_proxy(pdflush, CauseSet([app.pid]))
    page = cache.mark_dirty(PageKey(2, 0), pdflush)
    assert page.causes == CauseSet([app.pid])


def test_page_dirtied_reports_old_causes():
    env, tags, cache = make_cache()
    a, b = Task("a"), Task("b")
    calls = []
    cache.bus.subscribe(PageDirtied, lambda e: calls.append((e.page.key, e.old_causes)))
    key = PageKey(1, 5)
    cache.mark_dirty(key, a)
    cache.mark_dirty(key, b)
    assert calls[0] == (key, CauseSet())
    assert calls[1] == (key, CauseSet([a.pid]))


def test_page_freed_fires_for_dirty_page_only():
    env, tags, cache = make_cache()
    task = Task("t")
    freed = []
    cache.bus.subscribe(PageFreed, lambda e: freed.append(e.page.key))
    dirty_key, clean_key = PageKey(1, 0), PageKey(1, 1)
    cache.mark_dirty(dirty_key, task)
    cache.insert_clean_run(1, [(1, 500)])
    cache.free(dirty_key)
    cache.free(clean_key)
    assert freed == [dirty_key]
    assert cache.dirty_bytes == 0


def test_page_cleaned_after_writeback():
    env, tags, cache = make_cache()
    task = Task("t")
    page = cache.mark_dirty(PageKey(1, 0), task)
    page.write_submitted()
    assert page.under_writeback
    page.write_completed()
    assert not page.dirty
    assert cache.dirty_bytes == 0


def test_redirty_during_writeback_stays_dirty():
    env, tags, cache = make_cache()
    task = Task("t")
    key = PageKey(1, 0)
    page = cache.mark_dirty(key, task)
    page.write_submitted()
    cache.mark_dirty(key, task)  # modified mid-flight
    page.write_completed()
    assert page.dirty
    assert cache.dirty_bytes == PAGE_SIZE


def test_dirty_pages_of_filters_by_inode_and_sorts():
    env, tags, cache = make_cache()
    task = Task("t")
    cache.mark_dirty(PageKey(7, 3), task)
    cache.mark_dirty(PageKey(7, 1), task)
    cache.mark_dirty(PageKey(8, 0), task)
    pages = cache.dirty_pages_of(7)
    assert [p.key.index for p in pages] == [1, 3]
    assert cache.dirty_bytes_of(7) == 2 * PAGE_SIZE


def test_dirty_pages_by_age_is_oldest_first():
    env, tags, cache = make_cache()
    task = Task("t")

    def proc():
        cache.mark_dirty(PageKey(1, 10), task)
        yield env.timeout(1)
        cache.mark_dirty(PageKey(1, 5), task)
        yield env.timeout(1)
        cache.mark_dirty(PageKey(2, 0), task)

    env.process(proc())
    env.run()
    ages = [p.key for p in cache.dirty_pages_by_age()]
    assert ages == [PageKey(1, 10), PageKey(1, 5), PageKey(2, 0)]
    assert [p.key for p in cache.dirty_pages_by_age(limit=1)] == [PageKey(1, 10)]


def test_eviction_drops_clean_lru_pages_only():
    env, tags, cache = make_cache(memory=4 * PAGE_SIZE)
    task = Task("t")
    cache.mark_dirty(PageKey(1, 0), task)
    cache.insert_clean_run(1, [(index, 100 + index) for index in range(1, 8)])
    assert len(cache) == 4
    assert cache.contains(PageKey(1, 0))  # dirty page survived
    # The oldest clean pages went first; the newest three stayed.
    assert [cache.contains(PageKey(1, i)) for i in range(1, 8)] == [False] * 4 + [True] * 3
    assert cache.evictions == 4


def test_free_file_drops_all_pages():
    env, tags, cache = make_cache()
    task = Task("t")
    for index in range(5):
        cache.mark_dirty(PageKey(3, index), task)
    cache.insert_clean_run(4, [(0, 900)])
    assert cache.free_file(3) == 5
    assert cache.dirty_bytes == 0
    assert cache.contains(PageKey(4, 0))


def test_tag_memory_tracked_for_dirty_pages():
    env, tags, cache = make_cache()
    task = Task("t")
    page = cache.mark_dirty(PageKey(1, 0), task)
    assert tags.bytes_allocated > 0
    page.write_submitted()
    page.write_completed()
    assert tags.bytes_allocated == 0


def test_stale_writeback_completion_is_ignored():
    """A write completing for a freed page must not touch its successor."""
    env, tags, cache = make_cache()
    task = Task("t")
    key = PageKey(1, 0)
    stale = cache.mark_dirty(key, task)
    stale.write_submitted()
    cache.free(key)  # e.g. truncate while the write is in flight
    fresh = cache.mark_dirty(key, task)
    stale.write_completed()
    assert fresh.dirty
    assert cache.dirty_bytes == PAGE_SIZE
    assert cache.dirty_pages_by_age() == [fresh]
    assert cache.dirty_pages_of(1) == [fresh]
    assert tags.bytes_allocated > 0  # the fresh page's tag survives


def test_lookup_range_counts_hits_zero_fills_holes_and_returns_misses():
    env, tags, cache = make_cache()
    cache.insert_clean_run(1, [(0, 10), (1, 11)])
    cache.mark_dirty(PageKey(1, 2), Task("t"))
    missing = cache.lookup_range(1, 0, 5, {0: 10, 1: 11, 2: 12, 4: 14})
    assert missing == [(4, 14)]
    assert (cache.hits, cache.misses) == (4, 1)  # pages 0-2 plus hole 3
    assert cache.contains(PageKey(1, 3))  # the hole is now a clean page
    assert not cache.contains(PageKey(1, 4))  # the caller fetches misses


def test_readahead_probe_has_no_side_effects():
    env, tags, cache = make_cache()
    cache.insert_clean_run(1, [(1, 11)])
    found = cache.lookup_range(1, 0, 4, {0: 10, 1: 11, 3: 13}, readahead=True)
    assert found == [(0, 10), (3, 13)]
    assert (cache.hits, cache.misses, len(cache)) == (0, 0, 1)


def test_cleaned_page_keeps_its_disk_block():
    env, tags, cache = make_cache()
    task = Task("t")
    key = PageKey(1, 0)
    page = cache.mark_dirty(key, task)
    page.disk_block = 77
    page.write_submitted()
    page.write_completed()
    assert cache.dirty_pages == 0 and len(cache) == 1
    assert cache.mark_dirty(key, task).disk_block == 77
