"""Property-based tests on page-cache invariants and a reference model."""

import random
from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import PageCache, PageKey
from repro.core.tags import CauseSet, TagManager
from repro.fs import BlockMap
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


def dirty_keys(cache):
    """Each dirty page's key mapped to the dirty run holding it."""
    return {
        PageKey(run.inode_id, index): run
        for run in cache.dirty_runs()
        for index in range(run.start, run.stop)
    }


class Dirtied(NamedTuple):
    """One call of a cache's buffer-dirty hook, with its arguments."""

    inode_id: int
    first: int
    stop: int
    causes: CauseSet
    old_causes: CauseSet


class Freed(NamedTuple):
    """One call of a cache's buffer-free hook, with its arguments."""

    inode_id: int
    first: int
    stop: int


def record_dirtied(cache, fn):
    """Set *cache*'s buffer-dirty hook to pass each call to *fn* as a
    :class:`Dirtied`."""
    cache.on_buffers_dirty = lambda *args: fn(Dirtied(*args))


def record_freed(cache, fn):
    """Set *cache*'s buffer-free hook to pass each call to *fn* as a
    :class:`Freed`."""
    cache.on_buffer_free = lambda *args: fn(Freed(*args))


def event_keys(event):
    """The keys of the pages a buffer-dirty or -free hook call names,
    in file order."""
    return [PageKey(event.inode_id, index) for index in range(event.first, event.stop)]


def assert_runs(cache):
    """The cache's dirty runs: each file's are non-empty, sorted and
    disjoint; the age list holds exactly the indexed runs; a run is in
    flight exactly when a write lists it; and their pages and tags make
    up the cache's and the tag manager's counts."""
    aged = list(cache.dirty_runs())
    indexed = [run for _, runs in cache._dirty.files.values() for run in runs]
    assert len(aged) == len(indexed) and set(map(id, aged)) == set(map(id, indexed))
    for inode_id, (starts, runs) in cache._dirty.files.items():
        assert runs and starts == [run.start for run in runs]
        assert all(run.inode_id == inode_id and run.start < run.stop for run in runs)
        assert all(a.stop <= b.start for a, b in zip(runs, runs[1:]))
        for run in runs:
            assert run.dirty and run.next is not None
            assert (run.batch is not None) == run.under_writeback
            assert run.batch is None or any(listed is run for listed in run.batch)
    tags = cache.tags
    assert sum(map(len, aged)) == cache.dirty_pages == tags._page_tags - cache.lost_tags
    assert tags.bytes_allocated - cache.lost_tag_bytes == sum(
        len(run) * tags.tag_cost(run.causes) for run in aged
    )


class LruModel:
    """The cache as plain lists, one page at a time.

    ``clean`` is the LRU (front = least recently used), and ``blocks``
    maps each clean key to its disk block (None for a zero-filled
    page).  ``dirty`` maps a key to the incarnation number its birth
    drew (to tell a current page from a freed one), its cause pids, and
    whether its writeback is in flight or it was re-dirtied meanwhile.
    Every insert evicts on its own, which is what the cache's batched
    run insert must match.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.clean = []
        self.blocks = {}
        self.dirty = {}
        self.evictions = 0
        self.overwrites = 0
        self.births = 0

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

    def mark_dirty(self, key, pid):
        """Dirty one page; returns the ``(key, old causes)`` its
        buffer-dirty hook call must carry."""
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
        self.births += 1
        self.dirty[key] = {
            "birth": self.births, "causes": frozenset({pid}), "wb": False, "redirtied": False,
        }
        self._evict()
        return key, frozenset()

    def submitted(self, key):
        """Writeback of page *key* begins; returns its incarnation."""
        entry = self.dirty[key]
        entry["wb"] = True
        entry["redirtied"] = False
        return entry["birth"]

    def completed(self, key, birth, block):
        entry = self.dirty.get(key)
        if entry is None or entry["birth"] != birth:
            return  # freed while in flight: the cache ignores it
        entry["wb"] = False
        if entry["redirtied"]:
            entry["redirtied"] = False
            return
        del self.dirty[key]
        self._insert_clean(key, block)

    def failed(self, key, birth):
        entry = self.dirty.get(key)
        if entry is not None and entry["birth"] == birth:
            entry["wb"] = entry["redirtied"] = False

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
        #: Writes submitted and not finished: each is its runs (the list
        #: the cache adds pieces to) and each page's model incarnation.
        self.in_flight = []
        #: ``(key, old cause pids)`` of each page of each buffer-dirty
        #: hook call, in order, and the old cause set of each call.
        self.dirtied = []
        self.run_causes = []
        record_dirtied(self.cache, self.on_dirtied)
        #: Keys of each buffer-free hook call, in order.
        self.freed = []
        record_freed(self.cache, lambda e: self.freed.extend(map(tuple, event_keys(e))))

    def on_dirtied(self, event):
        keys = [tuple(key) for key in event_keys(event)]
        assert keys  # a hook call names at least one page
        self.dirtied.extend((key, event.old_causes.pids) for key in keys)
        self.run_causes.append(event.old_causes)

    def submit(self, runs):
        """Start one write of *runs*, as the filesystem does."""
        births = {}
        for run in runs:
            run.write_submitted(runs)
            for index in range(run.start, run.stop):
                key = (run.inode_id, index)
                births[key] = self.model.submitted(key)
        self.in_flight.append((runs, births))

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
            run = cache.mark_dirty(key, task)
            assert self.dirtied == [model.mark_dirty(key, task.pid)]
            block = run.block_of(index)
            assert block is None or block == block_map.get(index)
            if not was_dirty:
                # Born from its clean page's disk block, or unallocated.
                assert block == clean_block
        elif kind == 3:
            # One write of one or two whole runs, oldest first.
            candidates = cache.dirty_pages_by_age()
            if candidates:
                first = arg % len(candidates)
                self.submit(candidates[first:first + 1 + arg % 2])
        elif kind in (4, 10):
            # A write finishes: it succeeds (4) or fails for good (10).
            # Its runs may have been split, dirtied again or freed since.
            if self.in_flight:
                runs, births = self.in_flight.pop(arg % len(self.in_flight))
                if kind == 4:
                    blocks = {
                        (run.inode_id, i): run.block_of(i)
                        for run in runs
                        for i in range(run.start, run.stop)
                    }
                    cache.write_completed(runs)
                    for page_key in blocks:
                        model.completed(page_key, births[page_key], blocks[page_key])
                else:
                    for run in runs:
                        run.write_failed()
                    for page_key, birth in births.items():
                        model.failed(page_key, birth)
        elif kind == 11:
            # One write of a file's first dirty pages, cutting the run
            # that reaches past them.
            runs = cache.dirty_pages_of(inode_id, limit=arg + 1)
            if runs:
                assert sum(map(len, runs)) == min(
                    arg + 1,
                    sum(1 for k, e in model.dirty.items() if k[0] == inode_id and not e["wb"]),
                )
                self.submit(runs)
        elif kind == 5:
            cache.free(key)
            model.free(key)
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
                expected.append(model.mark_dirty((inode_id, i), task.pid))
                assert cache.dirty_run((inode_id, i)).block_of(i) == block_map.get(i)
            assert self.dirtied == expected
            # Stretches are maximal: neighbours had different old sets.
            assert all(a is not b for a, b in zip(self.run_causes, self.run_causes[1:]))
        self.dirtied.clear()
        self.run_causes.clear()
        self.freed.clear()

    def check_model(self):
        cache, model = self.cache, self.model
        assert len(cache) == len(model.clean) + len(model.dirty)
        assert cache.evictions == model.evictions
        assert cache.overwrites == model.overwrites
        dirty = dirty_keys(cache)
        assert set(cache.clean_keys()) | set(dirty) == model.resident()
        assert list(cache.clean_keys()) == model.clean
        assert clean_with_blocks(cache) == [(*key, model.blocks[key]) for key in model.clean]
        # Dirty pages in age order, with their causes and writeback state.
        assert [
            PageKey(run.inode_id, i)
            for run in cache.dirty_runs()
            for i in range(run.start, run.stop)
        ] == list(model.dirty)
        for key, entry in model.dirty.items():
            assert dirty[key].causes.pids == entry["causes"]
            assert dirty[key].under_writeback == entry["wb"]
        # Tags: each dirty page holds one tag priced by its set.
        tags = self.tags
        assert tags.live_tags == len(model.dirty)
        assert tags.bytes_allocated == sum(
            tags.TAG_OVERHEAD_BASE + tags.TAG_OVERHEAD_PER_PID * len(entry["causes"])
            for entry in model.dirty.values()
        )
        for inode_id in INODES:
            for index in range(self.file_pages):
                key = PageKey(inode_id, index)
                assert cache.contains(key) == (key in model.resident())
        assert_runs(cache)

    def check_invariants(self):
        cache = self.cache
        dirty = dirty_keys(cache)
        dirty_count = len(dirty)
        assert cache.dirty_pages == dirty_count
        assert cache.dirty_bytes == dirty_count * PAGE_SIZE
        clean = list(cache.clean_keys())
        assert len(clean) == len(set(clean)) == cache.clean_pages == len(cache) - dirty_count
        assert not set(clean) & set(dirty)
        # Each file's extent index is sorted, non-empty and disjoint.
        for inode_id, (starts, extents) in cache._extents.items():
            assert starts == [extent.start for extent in extents]
            assert all(e.inode_id == inode_id and e.start < e.stop for e in extents)
            assert all(a.stop <= b.start for a, b in zip(extents, extents[1:]))
        assert_runs(cache)
        # Dirty pages are never evicted: the cache may exceed capacity
        # only by holding nothing but dirty pages.
        assert len(cache) <= cache.capacity_pages or not clean
        assert len(cache) <= max(cache.capacity_pages, dirty_count)


operations = st.tuples(
    st.integers(min_value=0, max_value=11),  # op kind
    st.sampled_from(INODES),                 # inode
    st.integers(min_value=0, max_value=FILE_PAGES - 1),  # page index
    st.integers(min_value=0, max_value=5),   # run length / task / pick / batch size
)
#: Mostly reads and writeback completions, so clean pages stay cached
#: long enough to be hit again: a uniform mix fills the cache with
#: dirty pages and evicts every clean one at once.
READ_HEAVY_KINDS = (0,) * 6 + (1, 2) + (3,) * 4 + (4,) * 4 + (5, 6, 7, 8, 9, 9, 10, 11, 11)
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


#: Writes, flushes, failures and frees over runs many pages long, so
#: runs diverge: a new writer over part of a run, a page freed or
#: truncated inside one, a run dirtied again under writeback, and a
#: write of part of a run that fails.
DIVERGING_KINDS = (7,) * 4 + (2, 3, 3, 4, 4, 5, 8, 10, 10, 11, 11, 0, 9)


def test_diverging_runs_match_the_page_at_a_time_model():
    for seed in range(4):
        rng = random.Random(seed)
        machine = CacheMachine(capacity_pages=24, file_pages=64)
        for _ in range(1000):
            machine.apply((
                rng.choice(DIVERGING_KINDS),
                rng.choice(INODES),
                rng.randrange(machine.file_pages),
                rng.randint(0, 20),
            ))
            machine.check_invariants()
            machine.check_model()
