"""Property-based tests on page-cache invariants and a reference model."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import PageCache, PageKey
from repro.core.tags import TagManager
from repro.fs import BlockMap
from repro.obs.bus import PageDirtied, PageFreed
from repro.proc import Task
from repro.sim import Environment
from repro.units import PAGE_SIZE

INODES = (1, 2, 3)
FILE_PAGES = 16


def block_map_of(inode_id, file_pages=FILE_PAGES):
    """A file with a hole every fifth page."""
    return {i: inode_id * 1000 + i for i in range(file_pages) if i % 5 != 4}


def descending_block_map_of(inode_id, file_pages=FILE_PAGES):
    """A file laid out back to front, so no two pages continue each
    other on disk, with a hole every seventh page."""
    return {i: inode_id * 1000 + file_pages - i for i in range(file_pages) if i % 7 != 6}


def expand(runs):
    """``(index, block, count)`` runs as the ``(index, block)`` pairs of
    their pages, in order."""
    assert all(count > 0 for _, _, count in runs)
    return [(index + k, block + k) for index, block, count in runs for k in range(count)]


def clean_with_blocks(cache):
    """The clean pages in LRU order, each as ``(file, index, block)``."""
    pages = []
    lru = cache._lru
    extent = lru.next
    while extent is not lru:
        pages += [(extent.inode_id, i, extent.block_of(i)) for i in range(extent.start, extent.stop)]
        extent = extent.next
    return pages


def assert_hints(cache):
    """Every live dirty-run hint lists exactly the cache's dirty pages
    at its indices, all of one cause set object and each pointing back
    at it; a hint marked allocated lists only pages with a disk block."""
    pages = cache._pages
    for page in pages.values():
        hint = page.hint
        if hint is None or not hint.live:
            continue
        inode_id, offset = page.key.inode_id, page.key.index - hint.start
        assert 0 <= offset < len(hint.pages) and hint.pages[offset] is page
        causes = hint.pages[0].causes
        for offset, listed in enumerate(hint.pages):
            assert pages.get((inode_id, hint.start + offset)) is listed
            assert listed.hint is hint and listed.causes is causes
            assert listed.disk_block is not None or not hint.allocated


class LruModel:
    """The cache as plain lists, one page at a time.

    ``clean`` is the LRU (front = least recently used), and ``blocks``
    maps each clean key to its disk block (None for a zero-filled
    page).  ``dirty`` maps a key to the page object the cache returned
    when it was dirtied (identity only, to tell a current page from a
    freed one), its cause pids, and whether its writeback is in flight
    or it was re-dirtied meanwhile.  Every insert evicts on its own,
    which is what the cache's batched run insert must match.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.clean = []
        self.blocks = {}
        self.dirty = {}
        self.evictions = 0
        self.overwrites = 0

    def resident(self):
        return set(self.clean) | set(self.dirty)

    def _evict(self):
        while len(self.clean) + len(self.dirty) > self.capacity and self.clean:
            del self.blocks[self.clean.pop(0)]
            self.evictions += 1

    def _insert_clean(self, key, block):
        self.clean.append(key)
        self.blocks[key] = block
        self._evict()

    def read(self, inode_id, first, stop, block_map):
        missing = []
        for index in range(first, stop):
            key = (inode_id, index)
            if key in self.clean:
                self.clean.remove(key)
                self.clean.append(key)
            elif key not in self.dirty:
                if block_map.get(index) is None:
                    self._insert_clean(key, None)
                else:
                    missing.append((index, block_map[index]))
        for index, block in missing:
            self._insert_clean((inode_id, index), block)
        return missing

    def readahead(self, inode_id, first, stop, block_map):
        return [
            (index, block_map[index])
            for index in range(first, stop)
            if index in block_map and (inode_id, index) not in self.resident()
        ]

    def mark_dirty(self, key, page, pid):
        """Dirty one page; returns the ``(key, old causes)`` its
        buffer-dirty event must carry."""
        if key in self.dirty:
            entry = self.dirty[key]
            old = entry["causes"]
            entry["causes"] = old | {pid}
            self.overwrites += 1
            if entry["wb"]:
                entry["redirtied"] = True
            return key, old
        if key in self.clean:
            self.clean.remove(key)
            del self.blocks[key]
        self.dirty[key] = {
            "page": page, "causes": frozenset({pid}), "wb": False, "redirtied": False,
        }
        self._evict()
        return key, frozenset()

    def submitted(self, key):
        self.dirty[key]["wb"] = True
        self.dirty[key]["redirtied"] = False

    def completed(self, page):
        key = tuple(page.key)
        entry = self.dirty.get(key)
        if entry is None or entry["page"] is not page:
            return  # freed while in flight: the cache ignores it
        entry["wb"] = False
        if entry["redirtied"]:
            entry["redirtied"] = False
            return
        del self.dirty[key]
        self._insert_clean(key, page.disk_block)

    def free(self, key):
        if key in self.clean:
            self.clean.remove(key)
            del self.blocks[key]
        self.dirty.pop(key, None)

    def free_file(self, inode_id):
        keys = [key for key in self.resident() if key[0] == inode_id]
        for key in keys:
            self.free(key)
        return len(keys)


class CacheMachine:
    """Drives a cache and its model through the same random operations."""

    def __init__(self, capacity_pages=8, file_pages=FILE_PAGES, block_maps=block_map_of):
        self.env = Environment()
        self.tags = TagManager()
        self.cache = PageCache(self.env, self.tags, memory_bytes=capacity_pages * PAGE_SIZE)
        self.model = LruModel(capacity_pages)
        self.file_pages = file_pages
        #: The model reads plain dicts; the cache reads the same maps as extents.
        self.block_maps = {inode_id: block_maps(inode_id, file_pages) for inode_id in INODES}
        self.extent_maps = {inode_id: BlockMap(pages) for inode_id, pages in self.block_maps.items()}
        self.tasks = [Task(f"t{i}") for i in range(3)]
        #: Pages whose writeback was submitted and has not completed.
        self.in_flight = []
        #: ``(key, old cause pids)`` of each page of each buffer-dirty
        #: event, in order, and the old cause set of each event.
        self.dirtied = []
        self.run_causes = []
        self.cache.bus.subscribe(PageDirtied, self.on_dirtied)
        #: Keys of each buffer-free event, in order.
        self.freed = []
        self.cache.bus.subscribe(PageFreed, lambda e: self.freed.append(tuple(e.page.key)))

    def on_dirtied(self, event):
        keys = [tuple(page.key) for page in event.pages]
        inode_id, first = keys[0]
        # A run is consecutive pages of one file.
        assert keys == [(inode_id, first + i) for i in range(len(keys))]
        self.dirtied.extend((key, event.old_causes.pids) for key in keys)
        self.run_causes.append(event.old_causes)

    def apply(self, op):
        kind, inode_id, index, arg = op
        cache, model = self.cache, self.model
        key = PageKey(inode_id, index)
        stop = min(index + 1 + arg, self.file_pages)
        block_map, extent_map = self.block_maps[inode_id], self.extent_maps[inode_id]
        if kind == 0:
            missing = cache.lookup_range(inode_id, index, stop, extent_map)
            cache.insert_clean_run(inode_id, missing)
            assert expand(missing) == model.read(inode_id, index, stop, block_map)
        elif kind == 1:
            found = cache.lookup_range(inode_id, index, stop, extent_map, readahead=True)
            assert expand(found) == model.readahead(inode_id, index, stop, block_map)
        elif kind == 2:
            task = self.tasks[arg % len(self.tasks)]
            was_dirty = key in model.dirty
            clean_block = model.blocks.get(key)
            page = cache.mark_dirty(key, task)
            assert self.dirtied == [model.mark_dirty(key, page, task.pid)]
            assert page.disk_block is None or page.disk_block == block_map.get(index)
            if not was_dirty:
                # Born from its clean page's disk block, or unallocated.
                assert page.disk_block == clean_block
        elif kind == 3:
            candidates = cache.dirty_pages_by_age()
            if candidates:
                page = candidates[arg % len(candidates)]
                page.write_submitted()
                model.submitted(page.key)
                self.in_flight.append(page)
        elif kind == 4:
            if self.in_flight:
                page = self.in_flight.pop(arg % len(self.in_flight))
                page.write_completed()
                model.completed(page)
        elif kind == 5:
            cache.free(key)
            model.free(key)
        elif kind == 10:
            # One write's completion: several in-flight pages in one
            # call, some of them dirtied again, freed or stale since.
            if self.in_flight:
                first = index % len(self.in_flight)
                batch = self.in_flight[first:first + arg + 1]
                del self.in_flight[first:first + arg + 1]
                cache.write_completed(batch)
                for page in batch:
                    model.completed(page)
        elif kind == 6:
            # Dirty pages go oldest first (model dicts keep dirtying order).
            expected = [k for k in model.dirty if k[0] == inode_id]
            assert cache.free_file(inode_id) == model.free_file(inode_id)
            assert self.freed == expected
        elif kind == 8:
            # Dirty pages go in index order, as page-by-page truncation frees them.
            expected = sorted(k for k in model.dirty if k[0] == inode_id and index <= k[1] < stop)
            cache.free_range(inode_id, index, stop)
            for i in range(index, stop):
                model.free((inode_id, i))
            assert self.freed == expected
        elif kind == 9:
            resident = model.resident()
            expected = all((inode_id, i) in resident for i in range(index, stop))
            assert cache.contains_range(inode_id, index, stop) == expected
        else:
            task = self.tasks[arg % len(self.tasks)]
            cache.mark_dirty_range(inode_id, index, stop, extent_map, task)
            expected = []
            for i in range(index, stop):
                page = cache._pages[(inode_id, i)]
                expected.append(model.mark_dirty((inode_id, i), page, task.pid))
                assert page.disk_block == block_map.get(i)
            assert self.dirtied == expected
            # Runs are maximal: neighbours had different old sets.
            assert all(a is not b for a, b in zip(self.run_causes, self.run_causes[1:]))
        self.dirtied.clear()
        self.run_causes.clear()
        self.freed.clear()

    def check_model(self):
        cache, model = self.cache, self.model
        assert len(cache) == len(model.clean) + len(model.dirty)
        assert cache.evictions == model.evictions
        assert cache.overwrites == model.overwrites
        assert set(cache.clean_keys()) | set(cache._pages) == model.resident()
        assert list(cache.clean_keys()) == model.clean
        assert clean_with_blocks(cache) == [(*key, model.blocks[key]) for key in model.clean]
        # Causes and tags: each dirty page holds one tag priced by its set.
        tags = self.tags
        for key, entry in model.dirty.items():
            assert cache._pages[key].causes.pids == entry["causes"]
        assert tags.live_tags == len(model.dirty)
        assert tags.bytes_allocated == sum(
            tags.TAG_OVERHEAD_BASE + tags.TAG_OVERHEAD_PER_PID * len(entry["causes"])
            for entry in model.dirty.values()
        )
        for inode_id in INODES:
            for index in range(self.file_pages):
                key = PageKey(inode_id, index)
                assert cache.contains(key) == (key in model.resident())
        assert_hints(cache)

    def check_invariants(self):
        cache = self.cache
        dirty_count = len(cache._pages)
        assert cache.dirty_pages == dirty_count
        assert cache.dirty_bytes == dirty_count * PAGE_SIZE
        # Page objects exist only for dirty pages; clean ones are extents.
        assert all(page.dirty for page in cache._pages.values())
        clean = list(cache.clean_keys())
        assert len(clean) == len(set(clean)) == cache.clean_pages == len(cache) - dirty_count
        assert not set(clean) & set(cache._pages)
        # Each file's extent index is sorted, non-empty and disjoint.
        for inode_id, (starts, extents) in cache._extents.items():
            assert starts == [extent.start for extent in extents]
            assert all(e.inode_id == inode_id and e.start < e.stop for e in extents)
            assert all(a.stop <= b.start for a, b in zip(extents, extents[1:]))
        # The per-inode index covers exactly the dirty pages.
        per_inode = {key for index in cache._dirty_by_inode.values() for key in index}
        assert per_inode == set(cache._pages)
        assert all(cache._dirty_by_inode.values())
        # Dirty pages are never evicted: the cache may exceed capacity
        # only by holding nothing but dirty pages.
        assert len(cache) <= cache.capacity_pages or not clean
        assert len(cache) <= max(cache.capacity_pages, dirty_count)


operations = st.tuples(
    st.integers(min_value=0, max_value=10),  # op kind
    st.sampled_from(INODES),                 # inode
    st.integers(min_value=0, max_value=FILE_PAGES - 1),  # page index
    st.integers(min_value=0, max_value=5),   # run length / task / pick / batch size
)
#: Mostly reads and writeback completions, so clean pages stay cached
#: long enough to be hit again: a uniform mix fills the cache with
#: dirty pages and evicts every clean one at once.
READ_HEAVY_KINDS = (0,) * 6 + (1, 2) + (3,) * 4 + (4,) * 4 + (5, 6, 7, 8, 9, 9, 10, 10)
#: Long runs over files wider than the cache: extents split on
#: mid-extent hits, get trimmed by partial eviction, and coalesce as
#: writebacks complete.
wide_operations = st.tuples(
    st.sampled_from(READ_HEAVY_KINDS),
    st.sampled_from(INODES),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=20),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(operations, min_size=1, max_size=200))
def test_cache_invariants_under_random_ops(ops):
    machine = CacheMachine()
    for op in ops:
        machine.apply(op)
        machine.check_invariants()


@settings(max_examples=100, deadline=None)
@given(st.lists(operations, min_size=1, max_size=200))
def test_cache_matches_lru_model(ops):
    machine = CacheMachine()
    for op in ops:
        machine.apply(op)
        machine.check_model()


@settings(max_examples=60, deadline=None)
@given(st.lists(operations, min_size=1, max_size=200))
def test_cache_matches_lru_model_with_descending_blocks(ops):
    machine = CacheMachine(block_maps=descending_block_map_of)
    for op in ops:
        machine.apply(op)
        machine.check_invariants()
        machine.check_model()


@settings(max_examples=60, deadline=None)
@given(st.lists(wide_operations, min_size=1, max_size=200))
def test_cache_matches_lru_model_over_files_wider_than_the_cache(ops):
    machine = CacheMachine(capacity_pages=24, file_pages=64)
    for op in ops:
        machine.apply(op)
        machine.check_invariants()
        machine.check_model()


@settings(max_examples=30, deadline=None)
@given(st.lists(operations, min_size=1, max_size=100))
def test_tag_memory_never_negative(ops):
    machine = CacheMachine()
    for op in ops:
        machine.apply(op)
        assert machine.tags.bytes_allocated >= 0
        assert machine.tags.max_bytes_allocated >= machine.tags.bytes_allocated


def test_cache_matches_lru_model_on_long_seeded_runs():
    """Long op sequences, which shrinking-oriented generation rarely
    builds: re-reads of a run just read, partial hits on the newest
    extent, and deep eviction across many extents."""
    configs = [
        dict(),
        dict(block_maps=descending_block_map_of),
        dict(capacity_pages=24, file_pages=64),
    ]
    for seed, config in enumerate(configs):
        rng = random.Random(seed)
        machine = CacheMachine(**config)
        max_arg = 20 if machine.file_pages > FILE_PAGES else 5
        for _ in range(1500):
            machine.apply((
                rng.choice(READ_HEAVY_KINDS),
                rng.choice(INODES),
                rng.randrange(machine.file_pages),
                rng.randint(0, max_arg),
            ))
            machine.check_invariants()
            machine.check_model()
