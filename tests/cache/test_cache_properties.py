"""Property-based tests on page-cache invariants and a reference model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import PageCache, PageKey
from repro.core.tags import TagManager
from repro.obs.bus import PageDirtied
from repro.proc import Task
from repro.sim import Environment
from repro.units import PAGE_SIZE

INODES = (1, 2, 3)
FILE_PAGES = 16


def block_map_of(inode_id):
    """A file with a hole every fifth page."""
    return {i: inode_id * 1000 + i for i in range(FILE_PAGES) if i % 5 != 4}


class LruModel:
    """The cache as plain lists, one page at a time.

    ``clean`` is the LRU (front = least recently used).  ``dirty`` maps
    a key to the page object the cache returned when it was dirtied
    (identity only, to tell a current page from a freed one), its cause
    pids, and whether its writeback is in flight or it was re-dirtied
    meanwhile.  Every insert evicts on its own, which is what the
    cache's batched run insert must match.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.clean = []
        self.dirty = {}
        self.evictions = 0
        self.overwrites = 0

    def resident(self):
        return set(self.clean) | set(self.dirty)

    def _evict(self):
        while len(self.clean) + len(self.dirty) > self.capacity and self.clean:
            self.clean.pop(0)
            self.evictions += 1

    def _insert_clean(self, key):
        self.clean.append(key)
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
                    self._insert_clean(key)
                else:
                    missing.append((index, block_map[index]))
        for index, _ in missing:
            self._insert_clean((inode_id, index))
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
        self._insert_clean(key)

    def free(self, key):
        if key in self.clean:
            self.clean.remove(key)
        self.dirty.pop(key, None)

    def free_file(self, inode_id):
        keys = [key for key in self.resident() if key[0] == inode_id]
        for key in keys:
            self.free(key)
        return len(keys)


class CacheMachine:
    """Drives a cache and its model through the same random operations."""

    def __init__(self, capacity_pages=8):
        self.env = Environment()
        self.tags = TagManager()
        self.cache = PageCache(self.env, self.tags, memory_bytes=capacity_pages * PAGE_SIZE)
        self.model = LruModel(capacity_pages)
        self.tasks = [Task(f"t{i}") for i in range(3)]
        #: Pages whose writeback was submitted and has not completed.
        self.in_flight = []
        #: ``(key, old cause pids)`` of each buffer-dirty event, in order.
        self.dirtied = []
        self.cache.bus.subscribe(
            PageDirtied, lambda e: self.dirtied.append((tuple(e.page.key), e.old_causes.pids))
        )

    def apply(self, op):
        kind, inode_id, index, arg = op
        cache, model = self.cache, self.model
        key = PageKey(inode_id, index)
        stop = min(index + 1 + arg, FILE_PAGES)
        block_map = block_map_of(inode_id)
        if kind == 0:
            missing = cache.lookup_range(inode_id, index, stop, block_map)
            cache.insert_clean_run(inode_id, missing)
            assert missing == model.read(inode_id, index, stop, block_map)
        elif kind == 1:
            found = cache.lookup_range(inode_id, index, stop, block_map, readahead=True)
            assert found == model.readahead(inode_id, index, stop, block_map)
        elif kind == 2:
            task = self.tasks[arg % len(self.tasks)]
            page = cache.mark_dirty(key, task)
            assert self.dirtied == [model.mark_dirty(key, page, task.pid)]
            assert page.disk_block is None or page.disk_block == block_map.get(index)
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
        elif kind == 6:
            assert cache.free_file(inode_id) == model.free_file(inode_id)
        else:
            task = self.tasks[arg % len(self.tasks)]
            cache.mark_dirty_range(inode_id, index, stop, block_map, task)
            expected = []
            for i in range(index, stop):
                page = cache._pages[(inode_id, i)]
                expected.append(model.mark_dirty((inode_id, i), page, task.pid))
                assert page.disk_block == block_map.get(i)
            assert self.dirtied == expected
        self.dirtied.clear()

    def check_model(self):
        cache, model = self.cache, self.model
        assert len(cache) == len(model.clean) + len(model.dirty)
        assert cache.evictions == model.evictions
        assert cache.overwrites == model.overwrites
        assert set(cache._clean_lru) | set(cache._pages) == model.resident()
        assert list(cache._clean_lru) == model.clean
        for inode_id in INODES:
            for index in range(FILE_PAGES):
                key = PageKey(inode_id, index)
                assert cache.contains(key) == (key in model.resident())

    def check_invariants(self):
        cache = self.cache
        dirty_count = len(cache._pages)
        assert cache.dirty_pages == dirty_count
        assert cache.dirty_bytes == dirty_count * PAGE_SIZE
        # Page objects exist only for dirty pages; clean ones are keys.
        assert all(page.dirty for page in cache._pages.values())
        assert not set(cache._clean_lru) & set(cache._pages)
        # The per-inode index covers exactly the dirty pages.
        per_inode = {key for index in cache._dirty_by_inode.values() for key in index}
        assert per_inode == set(cache._pages)
        assert all(cache._dirty_by_inode.values())
        # Dirty pages are never evicted: the cache may exceed capacity
        # only by holding nothing but dirty pages.
        assert len(cache) <= cache.capacity_pages or not cache._clean_lru
        assert len(cache) <= max(cache.capacity_pages, dirty_count)


operations = st.tuples(
    st.integers(min_value=0, max_value=7),   # op kind
    st.sampled_from(INODES),                 # inode
    st.integers(min_value=0, max_value=FILE_PAGES - 1),  # page index
    st.integers(min_value=0, max_value=5),   # run length / task / pick
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


@settings(max_examples=30, deadline=None)
@given(st.lists(operations, min_size=1, max_size=100))
def test_tag_memory_never_negative(ops):
    machine = CacheMachine()
    for op in ops:
        machine.apply(op)
        assert machine.tags.bytes_allocated >= 0
        assert machine.tags.max_bytes_allocated >= machine.tags.bytes_allocated
