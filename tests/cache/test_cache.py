"""Tests for the page cache: dirtying, hooks, eviction, accounting."""

import pytest

from repro.cache import PageCache, PageKey
from repro.core.tags import CauseSet, TagManager
from repro.fs import BlockMap
from repro.proc import Task
from repro.sim import Environment
from repro.units import MB, PAGE_SIZE
from tests.cache.test_cache_properties import (
    assert_runs,
    clean_with_blocks,
    dirty_keys,
    event_keys,
    record_dirtied,
    record_freed,
)


def dirty_block(cache, inode_id, index):
    """The disk block of a dirty page (None while allocation is delayed)."""
    return cache.dirty_run((inode_id, index)).block_of(index)


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
    record_dirtied(cache, lambda e: calls.extend((key, e.old_causes) for key in event_keys(e)))
    key = PageKey(1, 5)
    cache.mark_dirty(key, a)
    cache.mark_dirty(key, b)
    assert calls[0] == (key, CauseSet())
    assert calls[1] == (key, CauseSet([a.pid]))


def test_page_freed_fires_for_dirty_page_only():
    env, tags, cache = make_cache()
    task = Task("t")
    freed = []
    record_freed(cache, lambda e: freed.extend(event_keys(e)))
    dirty_key, clean_key = PageKey(1, 0), PageKey(1, 1)
    cache.mark_dirty(dirty_key, task)
    cache.insert_clean_run(1, [(1, 500, 1)])
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
    cache.insert_clean_run(1, [(1, 101, 7)])
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
    cache.insert_clean_run(4, [(0, 900, 1)])
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
    cache.insert_clean_run(1, [(0, 10, 2)])
    cache.mark_dirty(PageKey(1, 2), Task("t"))
    missing = cache.lookup_range(1, 0, 5, BlockMap({0: 10, 1: 11, 2: 12, 4: 14}))
    assert missing == [(4, 14, 1)]
    assert (cache.hits, cache.misses) == (4, 1)  # pages 0-2 plus hole 3
    assert cache.contains(PageKey(1, 3))  # the hole is now a clean page
    assert not cache.contains(PageKey(1, 4))  # the caller fetches misses


def test_readahead_probe_has_no_side_effects():
    env, tags, cache = make_cache()
    cache.insert_clean_run(1, [(1, 11, 1)])
    found = cache.lookup_range(1, 0, 4, BlockMap({0: 10, 1: 11, 3: 13}), readahead=True)
    assert found == [(0, 10, 1), (3, 13, 1)]
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


def test_range_dirty_evicts_page_by_page():
    """Each uncached page of a range evicts on its own, so the clean
    pages a range would reach later can be evicted before it gets there
    (and are then born uncached)."""
    env, tags, cache = make_cache(memory=3 * PAGE_SIZE)
    task = Task("t")
    cache.insert_clean_run(1, [(1, 11, 2)])
    cache.mark_dirty(PageKey(2, 0), task)
    assert len(cache) == 3 and cache.evictions == 0
    cache.mark_dirty_range(1, 0, 3, BlockMap({0: 10, 1: 11, 2: 12}), task)
    assert cache.evictions == 2
    assert cache.dirty_pages == 4
    assert [dirty_block(cache, 1, i) for i in range(3)] == [10, 11, 12]


def test_range_dirty_takes_disk_blocks_after_the_hook():
    """A page's buffer-dirty hook sees it before its block-map disk
    block is applied; pages the block map lacks stay unallocated."""
    env, tags, cache = make_cache()
    task = Task("t")
    seen = []
    record_dirtied(
        cache, lambda e: seen.extend((i, dirty_block(cache, 1, i)) for i in range(e.first, e.stop))
    )
    cache.mark_dirty_range(1, 0, 3, BlockMap({0: 50, 2: 52}), task)
    assert seen == [(0, None), (1, None), (2, None)]
    assert [dirty_block(cache, 1, i) for i in range(3)] == [50, None, 52]


# -- buffer-dirty runs ---------------------------------------------------------


def mixed_run_cache(a, b):
    """Pages 0-5 of file 1, ready for a write over all of them: 0 and
    1 uncached, 2 and 3 dirty by *a* (one cause set object), 4 dirty by
    *b*, and 5 clean on disk block 105."""
    env, tags, cache = make_cache()
    cache.insert_clean_run(1, [(5, 105, 1)])
    cache.mark_dirty_range(1, 2, 4, None, a)
    cache.mark_dirty_range(1, 4, 5, None, b)
    return cache


def record_runs(cache):
    runs = []
    record_dirtied(cache, runs.append)
    return runs


def test_range_dirty_publishes_one_event_per_run_in_file_order():
    """Born pages, dirty pages of two old sets, then a born page again
    make four runs; expanded page by page, they are exactly the hook
    calls one-page writes would make, and both leave the same state."""
    block_map = BlockMap({i: 100 + i for i in range(6)})
    a, b, writer = Task("a"), Task("b"), Task("c")
    cache = mixed_run_cache(a, b)
    runs = record_runs(cache)
    cache.mark_dirty_range(1, 0, 6, block_map, writer)
    assert [list(range(e.first, e.stop)) for e in runs] == [[0, 1], [2, 3], [4], [5]]
    assert [e.old_causes for e in runs] == [
        CauseSet(), CauseSet([a.pid]), CauseSet([b.pid]), CauseSet()
    ]
    # One union per stretch, which its pages share.
    assert cache.dirty_run((1, 2)).causes is cache.dirty_run((1, 3)).causes is runs[1].causes

    reference = mixed_run_cache(a, b)
    one_by_one = record_runs(reference)
    for index in range(6):
        reference.mark_dirty_range(1, index, index + 1, block_map, writer)
    assert all(e.stop - e.first == 1 for e in one_by_one)

    def expand(events):
        return [(key, e.old_causes) for e in events for key in event_keys(e)]

    assert expand(runs) == expand(one_by_one)
    for attr in ("overwrites", "evictions", "dirty_bytes"):
        assert getattr(cache, attr) == getattr(reference, attr)
    for attr in ("bytes_allocated", "max_bytes_allocated", "live_tags"):
        assert getattr(cache.tags, attr) == getattr(reference.tags, attr)
    for index in range(6):
        page, ref = cache.dirty_run((1, index)), reference.dirty_run((1, index))
        assert (page.causes, page.block_of(index)) == (ref.causes, ref.block_of(index))


def test_page_under_writeback_in_an_overwrite_run_is_redirtied():
    env, tags, cache = make_cache()
    a, b = Task("a"), Task("b")
    cache.mark_dirty_range(1, 0, 3, None, a)
    cache._dirty.isolate(1, 1, 2)[0].write_submitted()
    runs = record_runs(cache)
    cache.mark_dirty_range(1, 0, 3, None, b)
    assert len(runs) == 1 and runs[0].old_causes == CauseSet([a.pid])
    assert (runs[0].first, runs[0].stop) == (0, 3)
    assert [cache.dirty_run((1, i)).redirtied for i in range(3)] == [False, True, False]
    assert cache.overwrites == 3
    assert_runs(cache)


# -- dirty runs: divergence -------------------------------------------------------

#: The block map of file 1 in the dirty-run tests.
BLOCKS = BlockMap({i: 100 + i for i in range(16)})


def recording_cache():
    """A fresh cache and the ``(key, old cause pids)`` of every page of
    every buffer-dirty hook call it will make, in order."""
    env, tags, cache = make_cache()
    events = []
    record_dirtied(
        cache, lambda e: events.extend((tuple(key), e.old_causes.pids) for key in event_keys(e))
    )
    return cache, events


def run_steps(cache, tasks, steps, per_page=False):
    """Apply ``(op, first, stop, writer)`` steps to file 1 of *cache*,
    checking the dirty-run invariant after each.  With *per_page*, each
    ``dirty`` step is split into one-page writes: the reference a
    run-at-a-time write must match hook call for hook call, once
    expanded."""
    for op, first, stop, writer in steps:
        if op == "dirty":
            pieces = [(i, i + 1) for i in range(first, stop)] if per_page else [(first, stop)]
            for lo, hi in pieces:
                cache.mark_dirty_range(1, lo, hi, BLOCKS, tasks[writer])
        elif op == "clean":
            page = cache._dirty.isolate(1, first, first + 1)[0]
            page.write_submitted()
            page.write_completed()
        elif op == "free":
            cache.free(PageKey(1, first))
        elif op == "free_range":
            cache.free_range(1, first, stop)
        elif op == "free_file":
            cache.free_file(1)
        else:
            assert op == "drop_volatile"
            cache.drop_volatile()
        assert_runs(cache)


def cache_state(cache):
    """Everything a write can change, keyed by page, not by object."""
    pages = {
        key: (run.causes.pids, run.block_of(key.index), run.redirtied)
        for key, run in sorted(dirty_keys(cache).items())
    }
    tags = cache.tags
    return (
        pages, list(cache.clean_keys()), cache.overwrites, cache.dirty_bytes,
        tags.bytes_allocated, tags.max_bytes_allocated, tags.live_tags,
    )


#: Pages 0-7 of file 1 born by writer a, then overwritten by a: one
#: run over all eight, on disk blocks 100-107.
HINTED = [("dirty", 0, 8, "a"), ("dirty", 0, 8, "a")]


@pytest.mark.parametrize(
    "breaker",
    [
        ("clean", 3, 4, None),
        ("free", 5, 6, None),
        ("free_range", 2, 4, None),
        ("free_file", 0, 0, None),
        ("drop_volatile", 0, 0, None),
        ("dirty", 2, 4, "b"),  # a merge over part of the run
    ],
)
def test_breaking_a_hint_keeps_the_next_overwrite_exact(breaker):
    """A step that makes part of a run diverge splits it, and later
    overwrites stay exact against one-page writes (the name records
    the hint this run replaced)."""
    tasks = {name: Task(name) for name in "abc"}
    cache, events = recording_cache()
    run_steps(cache, tasks, HINTED)
    run = cache.dirty_run((1, 0))
    assert (run.start, run.stop, run.disk_block) == (0, 8, 100)
    run_steps(cache, tasks, [breaker])
    if breaker[0] in ("free_file", "drop_volatile"):
        assert run.next is None and not list(cache.dirty_runs())
    else:
        assert len(run) < 8  # split where its pages diverged
    later = [("dirty", 0, 8, "c"), ("dirty", 0, 8, "c")]
    run_steps(cache, tasks, later)
    reference, reference_events = recording_cache()
    run_steps(reference, tasks, HINTED + [breaker] + later, per_page=True)
    assert events == reference_events
    assert cache_state(cache) == cache_state(reference)


def test_run_over_two_hints_of_one_set_publishes_one_event():
    """Two runs of one cause set object make one overwrite stretch: one
    hook call, and one union they then both carry."""
    a, b = Task("a"), Task("b")
    env, tags, cache = make_cache()
    cache.mark_dirty_range(1, 0, 4, BLOCKS, a)
    cache.mark_dirty_range(1, 4, 8, BLOCKS, a)
    first, second = cache.dirty_run((1, 0)), cache.dirty_run((1, 4))
    assert first is not second and first.causes is second.causes
    runs = record_runs(cache)
    cache.mark_dirty_range(1, 0, 8, BLOCKS, a)  # both runs, unchanged
    cache.mark_dirty_range(1, 0, 8, BLOCKS, b)  # one merge over both
    assert [(e.first, e.stop) for e in runs] == [(0, 8)] * 2
    assert [e.old_causes for e in runs] == [CauseSet([a.pid])] * 2
    assert list(cache.dirty_runs()) == [first, second]  # whole runs: no split
    assert first.causes is second.causes is runs[1].causes
    assert first.causes == CauseSet([a.pid, b.pid])
    assert_runs(cache)


def test_overwrite_over_a_hint_with_an_unallocated_page_takes_the_map_blocks():
    a = Task("a")
    env, tags, cache = make_cache()
    cache.mark_dirty_range(1, 0, 4, None, a)  # delayed allocation
    cache.mark_dirty_range(1, 0, 4, None, a)
    assert [(run.start, run.stop, run.disk_block) for run in cache.dirty_runs()] == [(0, 4, None)]
    cache.mark_dirty_range(1, 0, 4, BlockMap({0: 10, 1: 11, 3: 13}), a)
    assert [dirty_block(cache, 1, i) for i in range(4)] == [10, 11, None, 13]
    cache.mark_dirty_range(1, 0, 4, BlockMap({i: 10 + i for i in range(4)}), a)
    assert [dirty_block(cache, 1, i) for i in range(4)] == [10, 11, 12, 13]
    # A run sits on consecutive blocks: the map's hole split it.
    assert [(run.start, run.stop) for run in cache.dirty_runs()] == [(0, 2), (2, 3), (3, 4)]
    assert_runs(cache)


class CountingBlockMap(BlockMap):
    """A block map that counts its lookups (of extents or one page)."""

    calls = 0

    def runs(self, first=0, stop=None):
        self.calls += 1
        return super().runs(first, stop)

    def get(self, index, default=None):
        self.calls += 1
        return super().get(index, default)


def test_overwrite_inside_an_allocated_hint_does_no_per_page_work():
    """An overwrite by a run's own writer inside an allocated run
    changes nothing: no split and no block-map lookup."""
    a = Task("a")
    env, tags, cache = make_cache()
    block_map = CountingBlockMap({i: 100 + i for i in range(16)})
    cache.mark_dirty_range(1, 0, 16, block_map, a)
    cache.mark_dirty_range(1, 0, 16, block_map, a)
    run = cache.dirty_run((1, 0))
    assert (run.start, run.stop, run.disk_block) == (0, 16, 100) and block_map.calls == 1
    runs = record_runs(cache)
    cache.mark_dirty_range(1, 2, 14, block_map, a)
    assert [(e.first, e.stop) for e in runs] == [(2, 14)]
    assert list(cache.dirty_runs()) == [run] and len(run) == 16
    assert block_map.calls == 1
    assert cache.overwrites == 16 + 12
    assert_runs(cache)


def test_one_page_writes_over_clean_or_allocated_pages_skip_the_block_map():
    """A one-page birth from a clean extent with a disk block, and a
    one-page overwrite of an allocated dirty page, look nothing up in
    the block map; a one-page append, with no clean page to take its
    block from, looks once.  Each birth builds one run."""
    env, tags, cache = make_cache()
    block_map = CountingBlockMap({i: 100 + i for i in range(8)})
    cache.insert_clean_run(1, [(0, 100, 8)])
    task = Task("t")
    for index in (3, 5, 4):
        cache.mark_dirty_range(1, index, index + 1, block_map, task)
    assert block_map.calls == 0
    assert [dirty_block(cache, 1, i) for i in (3, 4, 5)] == [103, 104, 105]
    assert len(list(cache.dirty_runs())) == 3
    cache.mark_dirty_range(1, 4, 5, block_map, Task("u"))  # a new writer's overwrite
    cache.mark_dirty_range(1, 4, 5, block_map, task)
    assert block_map.calls == 0 and cache.overwrites == 2
    cache.mark_dirty_range(1, 8, 9, block_map, task)  # an append past the clean pages
    assert block_map.calls == 1 and dirty_block(cache, 1, 8) is None
    assert len(list(cache.dirty_runs())) == 4
    assert_runs(cache)


def test_page_under_writeback_inside_a_hinted_run_is_redirtied():
    a = Task("a")
    env, tags, cache = make_cache()
    cache.mark_dirty_range(1, 0, 4, BLOCKS, a)
    in_flight = cache._dirty.isolate(1, 2, 3)[0]
    in_flight.write_submitted()
    runs = record_runs(cache)
    cache.mark_dirty_range(1, 0, 4, BLOCKS, a)
    assert [(e.first, e.stop) for e in runs] == [(0, 4)]
    assert [cache.dirty_run((1, i)).redirtied for i in range(4)] == [False, False, True, False]
    in_flight.write_completed()  # modified mid-flight: stays dirty
    assert in_flight.dirty and cache.dirty_run((1, 2)) is in_flight
    assert_runs(cache)


@pytest.mark.parametrize(
    "dirty_first, first, stop",
    [
        ((), 0, 4),  # one born run
        ((0, 4), 0, 4),  # one overwrite run
        ((0, 2), 0, 4),  # overwrites, then births
        ((2, 4), 0, 4),  # births, then overwrites
        ((1, 2), 0, 4),  # born, overwritten, born
        ((0, 4), 3, 4),  # a single overwritten page
    ],
)
def test_range_dirty_covers_the_range_for_every_run_shape(dirty_first, first, stop):
    env, tags, cache = make_cache()
    if dirty_first:
        cache.mark_dirty_range(1, *dirty_first, None, Task("a"))
    b = Task("b")
    cache.mark_dirty_range(1, first, stop, None, b)
    assert all(b.pid in cache.dirty_run((1, i)).causes for i in range(first, stop))
    dirty = cache.dirty_pages
    cache.mark_dirty_range(1, 2, 2, None, b)  # nothing dirtied
    assert cache.dirty_pages == dirty
    assert_runs(cache)


# -- clean extents ------------------------------------------------------------


def clean_runs(cache, inode_id):
    """A file's clean extents as ``(start, stop)`` pairs, in file order."""
    entry = cache._extents.get(inode_id)
    return [(extent.start, extent.stop) for extent in entry[1]] if entry else []


def test_consecutive_pages_and_blocks_share_one_extent():
    env, tags, cache = make_cache()
    cache.insert_clean_run(1, [(0, 100, 3)])
    cache.insert_clean_run(1, [(3, 103, 1)])  # continues the newest extent
    assert clean_runs(cache, 1) == [(0, 4)]
    cache.insert_clean_run(1, [(4, 200, 1)])  # next page, but not the next block
    cache.insert_clean_run(1, [(6, 201, 1)])  # next block, but not the next page
    assert clean_runs(cache, 1) == [(0, 4), (4, 5), (6, 7)]
    assert list(cache.clean_keys()) == [(1, i) for i in (0, 1, 2, 3, 4, 6)]
    assert cache.clean_pages == len(cache) == 6


def test_run_in_block_order_keeps_its_page_order():
    """Runs whose pages descend on disk join one by one, in the order
    given, as a per-page LRU would take them."""
    env, tags, cache = make_cache()
    cache.insert_clean_run(1, [(2, 10, 1), (1, 11, 1), (0, 12, 1)])
    assert list(cache.clean_keys()) == [(1, 2), (1, 1), (1, 0)]
    assert clean_runs(cache, 1) == [(0, 1), (1, 2), (2, 3)]
    assert cache.mark_dirty(PageKey(1, 1), Task("t")).disk_block == 11


def test_extent_joins_only_the_newest_extent():
    env, tags, cache = make_cache()
    cache.insert_clean_run(1, [(0, 100, 1)])
    cache.insert_clean_run(2, [(0, 500, 1)])
    cache.insert_clean_run(1, [(1, 101, 1)])  # continues (1, 0), which is no longer newest
    assert clean_runs(cache, 1) == [(0, 1), (1, 2)]
    assert list(cache.clean_keys()) == [(1, 0), (2, 0), (1, 1)]


def test_mid_extent_hit_splits_it_and_moves_the_pages_to_the_mru_end():
    env, tags, cache = make_cache()
    block_map = BlockMap({i: 100 + i for i in range(8)})
    cache.insert_clean_run(1, [(0, 100, 8)])
    assert cache.lookup_range(1, 3, 5, block_map) == []
    assert [key.index for key in cache.clean_keys()] == [0, 1, 2, 5, 6, 7, 3, 4]
    assert clean_runs(cache, 1) == [(0, 3), (3, 5), (5, 8)]
    assert cache.hits == 2
    # The split pieces keep their disk blocks.
    task = Task("t")
    assert [cache.mark_dirty(PageKey(1, i), task).disk_block for i in (2, 3, 5)] == [102, 103, 105]


def test_hit_on_the_newest_pages_keeps_the_order():
    env, tags, cache = make_cache()
    cache.insert_clean_run(2, [(0, 50, 1)])
    cache.insert_clean_run(1, [(0, 100, 6)])
    cache.lookup_range(1, 4, 6, BlockMap({i: 100 + i for i in range(6)}))
    assert list(cache.clean_keys()) == [(2, 0)] + [(1, i) for i in range(6)]
    assert clean_runs(cache, 1) == [(0, 6)]


def test_hit_on_a_whole_extent_merges_it_into_the_newest_it_continues():
    env, tags, cache = make_cache()
    cache.insert_clean_run(1, [(3, 103, 3)])
    cache.insert_clean_run(1, [(0, 100, 3)])
    assert clean_runs(cache, 1) == [(0, 3), (3, 6)]
    cache.lookup_range(1, 3, 6, BlockMap({i: 100 + i for i in range(6)}))
    assert clean_runs(cache, 1) == [(0, 6)]
    assert [key.index for key in cache.clean_keys()] == list(range(6))


def test_dirtying_a_mid_extent_page_splits_it():
    env, tags, cache = make_cache()
    cache.insert_clean_run(1, [(0, 100, 8)])
    page = cache.mark_dirty(PageKey(1, 3), Task("t"))
    assert page.disk_block == 103
    assert clean_runs(cache, 1) == [(0, 3), (4, 8)]
    assert [key.index for key in cache.clean_keys()] == [0, 1, 2, 4, 5, 6, 7]
    assert (cache.clean_pages, cache.dirty_pages, len(cache)) == (7, 1, 8)


def test_in_order_writeback_completions_coalesce():
    env, tags, cache = make_cache()
    task = Task("t")
    cache.mark_dirty_range(1, 0, 4, BlockMap({i: 300 + i for i in range(4)}), task)
    for page in cache.dirty_pages_by_age():
        page.write_submitted()
        page.write_completed()
    assert clean_runs(cache, 1) == [(0, 4)]
    assert cache.mark_dirty(PageKey(1, 2), task).disk_block == 302


def test_completion_evicting_its_own_cleaned_pages_matches_page_at_a_time():
    """A cache over capacity with dirty pages only: one call completing
    a write of eight pages (one dirtied again and one freed mid-flight,
    each splitting the run in flight) cleans six, and its one eviction
    pops the first three it cleaned, exactly as completing the pieces
    one at a time does, state for state.  The same write on a cache
    that does not evict shows the order it cleaned them in: its clean
    LRU."""

    task = Task("w")

    def complete(one_call, memory):
        env, tags, cache = make_cache(memory=memory)
        cache.mark_dirty_range(1, 0, 8, BlockMap({i: 100 + i for i in range(8)}), task)
        write = cache.dirty_pages_of(1)
        for run in write:
            run.write_submitted(write)
        cache.mark_dirty(PageKey(1, 1), task)  # dirtied again mid-flight
        cache.free(PageKey(1, 3))  # freed mid-flight
        assert [(run.start, run.stop) for run in write] == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 8)]
        if one_call:
            cache.write_completed(write)
        else:
            for run in list(write):
                cache.write_completed([run])
        return cache_state(cache), clean_with_blocks(cache), cache.evictions

    for memory in (4 * PAGE_SIZE, 16 * PAGE_SIZE):
        assert complete(True, memory) == complete(False, memory)
    _, cleaned, evictions = complete(True, 16 * PAGE_SIZE)
    assert [(i, index) for i, index, _ in cleaned] == [
        (1, 0), (1, 2), (1, 4), (1, 5), (1, 6), (1, 7)
    ]
    assert evictions == 0
    state, clean, evictions = complete(True, 4 * PAGE_SIZE)
    assert clean == [(1, 5, 105), (1, 6, 106), (1, 7, 107)] and evictions == 3
    assert list(state[0]) == [(1, 1)]  # the re-dirtied page stays dirty


@pytest.mark.parametrize("ahead", [3, 1])
def test_birth_stretch_at_capacity_crossing_a_clean_extent_matches_page_at_a_time(ahead):
    """A full cache of eight clean pages: pages 3-6 of file 1 on blocks
    103-106, behind *ahead* pages of file 2 in LRU order.  One write of
    pages 0-9 of file 1 births them a stretch at a time, exactly as ten
    one-page writes do, event for event and state for state.  With
    three pages ahead, the births before the extent evict only file 2's
    pages and the extent is taken whole, its pages keeping their
    blocks; with one, they evict into it, and each later birth evicts
    its next page before the write reaches it."""

    task = Task("w")

    def write(one_call):
        env, tags, cache = make_cache(memory=8 * PAGE_SIZE)
        cache.insert_clean_run(2, [(0, 200, ahead)])
        cache.insert_clean_run(1, [(3, 103, 4)])
        cache.insert_clean_run(2, [(ahead, 200 + ahead, 4 - ahead)])
        assert len(cache) == cache.capacity_pages
        events = []
        record_dirtied(
            cache, lambda e: events.extend((tuple(key), e.old_causes.pids) for key in event_keys(e))
        )
        if one_call:
            cache.mark_dirty_range(1, 0, 10, None, task)
        else:
            for index in range(10):
                cache.mark_dirty(PageKey(1, index), task)
        blocks = [dirty_block(cache, 1, index) for index in range(10)]
        return events, cache_state(cache), cache.evictions, blocks

    batched = write(one_call=True)
    assert batched == write(one_call=False)
    _, state, evictions, blocks = batched
    assert state[1] == []  # every clean page evicted or born
    if ahead == 3:
        assert blocks == [None] * 3 + [103, 104, 105, 106] + [None] * 3
        assert evictions == 4
    else:
        assert blocks == [None] * 10
        assert evictions == 8


def test_zero_filled_holes_form_blockless_extents():
    env, tags, cache = make_cache()
    missing = cache.lookup_range(1, 0, 5, BlockMap({0: 10, 4: 14}))
    assert missing == [(0, 10, 1), (4, 14, 1)]
    assert clean_runs(cache, 1) == [(1, 4)]  # pages 1-3, no disk block
    cache.insert_clean_run(1, missing)
    # A page with a block never joins a blockless extent.
    assert clean_runs(cache, 1) == [(0, 1), (1, 4), (4, 5)]
    assert cache.mark_dirty(PageKey(1, 2), Task("t")).disk_block is None


def test_eviction_pops_whole_extents_then_trims_the_last():
    env, tags, cache = make_cache(memory=6 * PAGE_SIZE)
    cache.insert_clean_run(1, [(0, 10, 2)])
    cache.insert_clean_run(2, [(0, 20, 4)])
    cache.insert_clean_run(3, [(0, 30, 3)])
    assert cache.evictions == 3
    assert clean_runs(cache, 1) == []
    assert clean_runs(cache, 2) == [(1, 4)]
    assert list(cache.clean_keys()) == [(2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2)]
    assert cache.mark_dirty(PageKey(2, 1), Task("t")).disk_block == 21


def test_free_file_unlinks_only_that_files_extents():
    env, tags, cache = make_cache()
    cache.insert_clean_run(1, [(0, 10, 2)])
    cache.insert_clean_run(2, [(0, 20, 1)])
    cache.insert_clean_run(1, [(5, 15, 1)])
    assert cache.free_file(1) == 3
    assert list(cache.clean_keys()) == [(2, 0)]
    assert cache.clean_pages == len(cache) == 1
    assert not cache._extents.get(1)


def test_free_range_cuts_extents_and_frees_dirty_pages_in_index_order():
    env, tags, cache = make_cache()
    task = Task("t")
    freed = []
    record_freed(cache, lambda e: freed.extend(range(e.first, e.stop)))
    cache.insert_clean_run(1, [(0, 100, 8)])
    cache.mark_dirty(PageKey(1, 5), task)
    cache.mark_dirty(PageKey(1, 3), task)
    cache.mark_dirty(PageKey(1, 9), task)
    cache.free_range(1, 2, 9)
    assert freed == [3, 5]
    assert clean_runs(cache, 1) == [(0, 2)]
    assert [page.key.index for page in cache.dirty_pages_by_age()] == [9]
    assert (cache.clean_pages, cache.dirty_pages) == (2, 1)


def test_contains_range_checks_gaps_against_dirty_pages():
    env, tags, cache = make_cache()
    cache.insert_clean_run(1, [(0, 10, 2)])
    cache.insert_clean_run(1, [(4, 14, 1)])
    assert cache.contains_range(1, 0, 2)
    assert not cache.contains_range(1, 0, 5)  # pages 2 and 3 are not cached
    task = Task("t")
    cache.mark_dirty(PageKey(1, 2), task)
    assert not cache.contains_range(1, 0, 5)
    cache.mark_dirty(PageKey(1, 3), task)
    assert cache.contains_range(1, 0, 5)
    assert not cache.contains_range(2, 0, 1)
    assert cache.contains_range(1, 3, 3)  # an empty range
