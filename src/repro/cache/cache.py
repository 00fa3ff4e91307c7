"""The page cache proper: lookup, dirtying, eviction, accounting."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from itertools import filterfalse, islice
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.cache.page import Page, PageKey
from repro.core.tags import EMPTY_CAUSES, CauseSet, TagManager
from repro.obs.bus import PageCleaned, PageDirtied, PageFreed, StackBus
from repro.units import GB, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.inode import BlockMap, Run
    from repro.proc import Task
    from repro.sim.core import Environment


_under_writeback = attrgetter("under_writeback")


class _Extent:
    """Clean pages ``start..stop-1`` of one file, adjacent in LRU order.

    The pages sit on disk blocks ``block..block+n-1``, or are
    zero-filled sparse pages when *block* is None.  An extent holds no
    per-page state, so trimming or splitting it is O(1).  ``prev`` and
    ``next`` link the cache's LRU list.
    """

    __slots__ = ("inode_id", "start", "stop", "block", "prev", "next")

    def __init__(self, inode_id: int, start: int, stop: int, block: Optional[int]):
        self.inode_id = inode_id
        self.start = start
        self.stop = stop
        self.block = block

    def block_of(self, index: int) -> Optional[int]:
        block = self.block
        return None if block is None else block + index - self.start


class _DirtyRun:
    """A hint: dirty pages ``start..start+len(pages)-1`` of one file,
    all sharing one cause set object.

    Each listed page points back here through ``Page.hint``.  While
    ``live``, *pages* are exactly the cache's dirty pages at those
    indices, so an overwrite run inside the hint is a slice of it
    instead of a page-by-page scan.  Removing one of its pages (clean
    or free) or changing the set of some of them kills the hint in
    O(1); its other pages keep pointing at the dead hint until a later
    scanned run gives them a new one.  ``allocated`` records that every
    listed page has a disk block, so an overwrite inside the hint has
    no block work to do.
    """

    __slots__ = ("start", "pages", "live", "allocated")

    def __init__(self, start: int, pages: List[Page], allocated: bool):
        self.start = start
        self.pages = pages
        self.live = True
        self.allocated = allocated


class PageCache:
    """An LRU page cache with dirty-page accounting and split hooks.

    The split framework's memory-level hooks (`buffer-dirty`,
    `buffer-free`, Table 2) fire from here — published as
    :class:`~repro.obs.bus.PageDirtied` / :class:`PageFreed` events on
    the stack bus, so any number of subscribers (the installed split
    scheduler, span builders, tests) observe them.  A stack running a
    pure block-level scheduler has no memory subscribers, which is
    exactly the information gap the paper describes.

    Clean pages carry no identity the schedulers read, so they live in
    an LRU list of *extents* (runs of clean pages of one file, adjacent
    in LRU order, on consecutive disk blocks), not as one entry each.
    Expanding the extents front to back gives the exact page order of a
    per-page LRU, so hits, misses and evictions are those of one; a cold
    streaming read costs O(extents) list operations, not O(pages).
    """

    def __init__(
        self,
        env: "Environment",
        tags: TagManager,
        memory_bytes: int = 16 * GB,
        bus: Optional[StackBus] = None,
    ):
        if memory_bytes < PAGE_SIZE:
            raise ValueError("cache must hold at least one page")
        self.env = env
        self.tags = tags
        self.memory_bytes = memory_bytes
        self.capacity_pages = memory_bytes // PAGE_SIZE
        #: Dirty pages (including those under writeback), the only
        #: pages that exist as :class:`Page` objects.  Insertion order
        #: is age order: a page enters on its clean->dirty transition.
        self._pages: Dict[PageKey, Page] = {}
        #: Sentinel of the circular LRU list of clean extents: ``next``
        #: is the least recently used, ``prev`` the newest.  Only clean
        #: pages are evictable, so eviction pops and trims from the front.
        self._lru = _Extent(-1, 0, 0, None)
        self._lru.prev = self._lru.next = self._lru
        #: Per file: the sorted starts of its clean extents, beside the
        #: extents themselves (plain ints, so ``bisect`` runs in C).
        self._extents: Dict[int, Tuple[List[int], List[_Extent]]] = {}
        self._clean_pages = 0
        self._dirty_by_inode: Dict[int, "OrderedDict[PageKey, None]"] = {}
        self.dirty_bytes = 0
        #: The stack event bus (shared with the rest of the stack when
        #: assembled by the OS; private when constructed standalone).
        self.bus = bus if bus is not None else StackBus()
        # Live subscriber lists, cached so the hot paths pay one
        # truthiness check when nobody listens (zero-cost-off).
        self._sub_dirtied = self.bus.listeners(PageDirtied)
        self._sub_cleaned = self.bus.listeners(PageCleaned)
        self._sub_freed = self.bus.listeners(PageFreed)
        # Counters
        self.hits = 0
        self.misses = 0
        self.overwrites = 0
        self.evictions = 0

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pages) + self._clean_pages

    @property
    def dirty_pages(self) -> int:
        return len(self._pages)

    @property
    def clean_pages(self) -> int:
        return self._clean_pages

    @property
    def dirty_fraction(self) -> float:
        return self.dirty_bytes / self.memory_bytes

    def contains(self, key: PageKey) -> bool:
        inode_id, index = key
        return key in self._pages or self._locate(inode_id, index, index + 1)[1] is not None

    def contains_range(self, inode_id: int, first: int, stop: int) -> bool:
        """Whether every page ``first..stop-1`` of a file is cached,
        dirty or clean: clean extents answer for their runs, and only
        the gaps between them are checked page by page."""
        pages = self._pages
        index = first
        while index < stop:
            end, extent = self._locate(inode_id, index, stop)
            if extent is None and not all((inode_id, i) in pages for i in range(index, end)):
                return False
            index = end
        return True

    def clean_keys(self) -> Iterator[PageKey]:
        """Keys of the clean pages in LRU order, next eviction victim
        first (read-only: do not mutate the cache while iterating)."""
        lru = self._lru
        extent = lru.next
        while extent is not lru:
            for index in range(extent.start, extent.stop):
                yield PageKey(extent.inode_id, index)
            extent = extent.next

    def dirty_pages_of(self, inode_id: int) -> List[Page]:
        """All dirty pages of one file, in file order."""
        index = self._dirty_by_inode.get(inode_id)
        if not index:
            return []
        pages = self._pages
        return [
            page for page in map(pages.__getitem__, sorted(index)) if not page.under_writeback
        ]

    def dirty_bytes_of(self, inode_id: int) -> int:
        """Dirty bytes of one file (including pages under writeback)."""
        index = self._dirty_by_inode.get(inode_id)
        return len(index) * PAGE_SIZE if index else 0

    def iter_dirty_by_age(self) -> Iterator[Page]:
        """Dirty pages not under writeback, oldest first, lazily."""
        return filterfalse(_under_writeback, self._pages.values())

    def dirty_pages_by_age(self, limit: Optional[int] = None) -> List[Page]:
        """Dirty pages not under writeback, oldest first."""
        return list(islice(self.iter_dirty_by_age(), limit))

    # -- mutation ----------------------------------------------------------

    def lookup_range(
        self,
        inode_id: int,
        first: int,
        stop: int,
        block_map: "BlockMap",
        readahead: bool = False,
    ) -> List["Run"]:
        """Look up pages ``first..stop-1`` of a file for a read.

        Returns the ``(index, disk block, count)`` runs the caller must
        fetch (and then add with :meth:`insert_clean_run`), in index
        order.  For a read, each cached page is a hit and moves to the
        MRU end; a page with no disk block is a sparse hole, zero-filled
        as a clean hit; the rest are misses.  A *readahead* probe only
        reports the uncached pages that have a disk block: it touches
        and counts nothing.
        """
        pages = self._pages
        dirty = inode_id in self._dirty_by_inode
        mapped = block_map.runs
        missing: List["Run"] = []
        hits = 0
        index = first
        while index < stop:
            end, extent = self._locate(inode_id, index, stop)
            if extent is not None:
                if not readahead:
                    self._touch(extent, index, end)
                    hits += end - index
                index = end
                continue
            # A gap: no page here is clean; a dirty one is a hit, and
            # the uncached pages between dirty ones are looked up apart.
            if dirty:
                pieces = []
                lo = index
                for i in range(index, end):
                    if (inode_id, i) in pages:
                        if lo < i:
                            pieces.append((lo, i))
                        lo = i + 1
                        hits += 1
                if lo < end:
                    pieces.append((lo, end))
            else:
                pieces = ((index, end),)
            holes = 0
            for lo, hi in pieces:
                found = mapped(lo, hi)
                missing += found
                if readahead:
                    continue
                # Zero-fill the holes between the runs.  They join the
                # MRU end in order; evicting once after them pops the
                # same pages as evicting after each, since each insert
                # pops the front.
                for i, _, count in found:
                    if lo < i:
                        self._append(inode_id, lo, i, None)
                        holes += i - lo
                    lo = i + count
                if lo < hi:
                    self._append(inode_id, lo, hi, None)
                    holes += hi - lo
            if holes:
                hits += holes
                self._maybe_evict()
            index = end
        if not readahead:
            self.hits += hits
            self.misses += sum(count for _, _, count in missing)
        return missing

    def insert_clean_run(self, inode_id: int, runs: List["Run"]) -> None:
        """Add pages just read from disk, none of them cached yet.

        *runs* are ``(index, disk block, count)``; their pages join the
        MRU end in the order given, each run as one extent (or as the
        continuation of the newest one), then the LRU front is evicted
        down to capacity: the same pages a page-at-a-time insert would
        evict.
        """
        append = self._append
        for index, block, count in runs:
            append(inode_id, index, index + count, block)
        self._maybe_evict()

    def mark_dirty_range(
        self,
        inode_id: int,
        first: int,
        stop: int,
        block_map: Optional["BlockMap"],
        task: "Task",
        causes: Optional[CauseSet] = None,
    ) -> Optional[Page]:
        """Dirty pages ``first..stop-1`` of a file on behalf of *task*
        (*causes* is *task*'s current cause set, if the caller already
        looked it up).

        This is the buffered write path's one cache call.  Pages are
        dirtied in file order, in *runs*: consecutive pages that carried
        the same cause set object before this write (pages born
        clean->dirty form runs with the empty set).  An uncached page is
        born (and may evict a clean one) as on its own; an already-dirty
        page counts as an overwrite, and its run merges *task*'s causes
        into the old set once, so all its pages share the merged set.
        Each run then re-prices its pages' tags with one call and
        publishes one buffer-dirty event with its old causes, so a
        scheduler can skip overwrites or shift accounting to the last
        writer if its policy wants that (§4.2).  After its run's event,
        the run's pages take their disk blocks from the extents of
        *block_map* there (a page outside them keeps its allocation
        delayed; without a *block_map*, every page keeps its block).
        Returns the last page dirtied.

        Births go a stretch at a time: a clean stretch leaves its extent
        with one take, and an uncached stretch evicts once after its
        pages are born.  A born page is dirty, never in the clean LRU,
        so births cannot reorder the LRU front: evicting once after the
        stretch pops the same pages as evicting after each birth, and
        the next stretch is located after that eviction, as the next
        page would be.

        An overwrite run takes the pages of a live dirty-run hint as
        one slice.  A run that merged a new writer into its set, or had
        to be scanned page by page, gets a new hint over its pages.  A
        run made only of allocated hints' pages does no block work: a
        dirty page's block, once set, is its file's block-map entry, so
        taking the map's blocks again would change nothing.
        """
        if causes is None:
            causes = self.tags.current_causes(task)
        pages, by_inode = self._pages, self._dirty_by_inode
        account_tags, subscribers = self.tags.account_tags, self._sub_dirtied
        now = self.env.now
        run: List[Page] = []
        index = first
        while index < stop:
            start = index
            run = []
            page = pages.get((inode_id, index))
            if page is None:
                # Births: the clean (or uncached) pages up to the next dirty one.
                old_causes = EMPTY_CAUSES
                merged = causes
                dirty = by_inode.get(inode_id)
                if dirty is None:
                    dirty = by_inode[inode_id] = OrderedDict()
                while True:
                    end, extent = self._locate(inode_id, index, stop)
                    if extent is None:
                        block = None
                    else:
                        block = extent.block_of(index)
                        self._take(extent, index, end)
                    while True:
                        key = PageKey(inode_id, index)
                        page = pages[key] = Page(key, self, block, causes, now)
                        dirty[key] = None
                        run.append(page)
                        index += 1
                        if block is not None:
                            block += 1
                        # A clean stretch holds no dirty page.
                        if index == end or (extent is None and (inode_id, index) in pages):
                            break
                    if extent is None:
                        self._maybe_evict()
                    if index == stop or (inode_id, index) in pages:
                        break
                self.dirty_bytes += PAGE_SIZE * len(run)
                hints = ()
                fresh = None
                allocated = False
            else:
                # Overwrites: the dirty pages that share this page's set,
                # a live hint's pages as one slice, others one by one.
                old_causes = page.causes
                merged = old_causes | causes
                hints = []
                scanned = False
                allocated = True
                while True:
                    hint = page.hint
                    if hint is not None and hint.live:
                        offset = hint.start
                        end = offset + len(hint.pages)
                        if end > stop:
                            end = stop
                        run += hint.pages[index - offset:end - offset]
                        hints.append(hint)
                        if not hint.allocated:
                            allocated = False
                        index = end
                    else:
                        run.append(page)
                        scanned = True
                        allocated = False
                        index += 1
                    if index == stop:
                        break
                    page = pages.get((inode_id, index))
                    if page is None or page.causes is not old_causes:
                        break
                for page in run:
                    if page.under_writeback:
                        page.redirtied = True
                self.overwrites += len(run)
                fresh = None
                if scanned or merged is not old_causes:
                    for hint in hints:
                        hint.live = False
                    fresh = _DirtyRun(start, run, allocated)
                    for page in run:
                        page.causes = merged
                        page.hint = fresh
            if merged is not old_causes:
                account_tags(run, merged)
            if subscribers:
                self.bus.publish(PageDirtied(now, tuple(run), old_causes))
            if not allocated:
                if block_map is not None:
                    for i, block, count in block_map.runs(start, index):
                        for page in run[i - start:i - start + count]:
                            page.disk_block = block
                            block += 1
                if fresh is not None:
                    fresh.allocated = all(page.disk_block is not None for page in run)
                else:
                    for hint in hints:
                        if not hint.allocated:
                            hint.allocated = all(page.disk_block is not None for page in hint.pages)
        return run[-1] if run else None

    def mark_dirty(self, key: PageKey, task: "Task") -> Page:
        """Dirty one page: :meth:`mark_dirty_range` over *key* alone,
        leaving its disk block as it is."""
        return self.mark_dirty_range(key.inode_id, key.index, key.index + 1, None, task)

    def assign_block(self, inode_id: int, index: int, block: int) -> None:
        """A dirty page waiting for delayed allocation takes *block*,
        which its file just allocated for it (an O_DIRECT write)."""
        page = self._pages.get((inode_id, index))
        if page is not None and page.disk_block is None:
            page.disk_block = block

    def write_completed(self, pages: List[Page]) -> None:
        """The block write carrying *pages* finished (block-layer callback).

        Each page, in request order, leaves writeback.  One re-dirtied
        while its write was in flight stays dirty.  One the cache no
        longer holds (freed or dropped while in flight) is ignored: its
        accounting already left with it, and a newer page may now hold
        the same key.  The rest turn clean: their tags are released with
        one call, they join the MRU end as one extent per run of
        consecutive indices on consecutive blocks, ``PageCleaned`` is
        published for each in order, and the LRU front is evicted once.

        Cleaning moves a page from dirty to clean, so the cache's length
        never changes, and a cache that must evict held no clean page
        before this call.  Its LRU front is then this call's first
        cleaned pages, in order: evicting once pops the same pages as
        evicting after each clean (the argument of
        :meth:`insert_clean_run`).
        """
        current, by_inode = self._pages, self._dirty_by_inode
        append = self._append
        cleaned = []
        # The run of cleaned pages not yet appended: file, indices
        # start..stop-1, first disk block.
        run_inode = run_start = run_stop = run_block = None
        for page in pages:
            page.under_writeback = False
            if page.redirtied:
                continue  # still dirty: it was modified mid-flight
            key = page.key
            if not page.dirty or current.get(key) is not page:
                continue
            page.dirty = False
            page.dirtied_at = None
            page.causes = EMPTY_CAUSES
            if page.hint is not None:
                page.hint.live = False
            del current[key]
            inode_id, index = key
            dirty = by_inode[inode_id]
            del dirty[key]
            if not dirty:
                del by_inode[inode_id]
            cleaned.append(page)
            block = page.disk_block
            if (
                index == run_stop
                and inode_id == run_inode
                and (block is None if run_block is None else block == run_block + index - run_start)
            ):
                run_stop += 1
            else:
                if run_inode is not None:
                    append(run_inode, run_start, run_stop, run_block)
                run_inode, run_start, run_stop, run_block = inode_id, index, index + 1, block
        if cleaned:
            append(run_inode, run_start, run_stop, run_block)
            self.dirty_bytes -= PAGE_SIZE * len(cleaned)
            self.tags.release_tags(cleaned)
            if self._sub_cleaned:
                now = self.env.now
                for page in cleaned:
                    self.bus.publish(PageCleaned(now, page))
            self._maybe_evict()

    def free(self, key: PageKey) -> None:
        """Drop a page (file deletion / truncation).

        A dirty page freed before writeback fires the buffer-free hook:
        the work disappeared, and schedulers may refund its cost.
        """
        page = self._pages.pop(key, None)
        if page is None:
            inode_id, index = key
            extent = self._locate(inode_id, index, index + 1)[1]
            if extent is not None:
                self._take(extent, index, index + 1)
            return
        if page.hint is not None:
            page.hint.live = False
        self._discard_dirty(key)
        self.dirty_bytes -= PAGE_SIZE
        self.tags.release_tag(page)
        if self._sub_freed:
            self.bus.publish(PageFreed(self.env.now, page))

    def free_range(self, inode_id: int, first: int, stop: int) -> None:
        """Drop pages ``first..stop-1`` of a file (truncation): the clean
        extents there are cut out whole, then dirty pages are freed as
        :meth:`free` would, in index order."""
        index = first
        while index < stop:
            end, extent = self._locate(inode_id, index, stop)
            if extent is not None:
                self._take(extent, index, end)
            index = end
        dirty = self._dirty_by_inode.get(inode_id)
        if dirty:
            for key in sorted(key for key in dirty if first <= key.index < stop):
                self.free(key)

    def _discard_dirty(self, key: PageKey) -> None:
        index = self._dirty_by_inode.get(key.inode_id)
        if index is not None:
            index.pop(key, None)
            if not index:
                del self._dirty_by_inode[key.inode_id]

    def drop_volatile(self) -> int:
        """Simulate power loss: every cached page vanishes, no hooks.

        DRAM contents are gone, so dirty pages are lost *without*
        firing buffer-free hooks or releasing tags — there is no
        orderly teardown in a crash.  Their dirty-run hints become
        unreachable with them.  Returns the number of pages dropped.
        Only meaningful on a halted environment.
        """
        count = len(self)
        self._pages.clear()
        self._lru.prev = self._lru.next = self._lru
        self._extents.clear()
        self._clean_pages = 0
        self._dirty_by_inode.clear()
        self.dirty_bytes = 0
        return count

    def free_file(self, inode_id: int) -> int:
        """Drop every cached page of a file; returns count freed.

        Dirty pages are freed (and publish :class:`PageFreed`) oldest
        first.
        """
        clean = 0
        for extent in self._extents.pop(inode_id, ((), ()))[1]:
            extent.prev.next = extent.next
            extent.next.prev = extent.prev
            clean += extent.stop - extent.start
        self._clean_pages -= clean
        dirty = list(self._dirty_by_inode.get(inode_id, ()))
        for key in dirty:
            self.free(key)
        return clean + len(dirty)

    # -- clean extents -----------------------------------------------------

    def _locate(
        self, inode_id: int, index: int, stop: int
    ) -> Tuple[int, Optional[_Extent]]:
        """The run of pages from *index* (up to *stop*) in one state:
        ``(end, extent)`` if page *index* is clean in *extent*, else
        ``(end, None)`` up to the file's next clean extent."""
        entry = self._extents.get(inode_id)
        if entry is None:
            return stop, None
        starts, extents = entry
        j = bisect_right(starts, index)
        if j:
            extent = extents[j - 1]
            if index < extent.stop:
                return min(extent.stop, stop), extent
        if j < len(starts) and starts[j] < stop:
            return starts[j], None
        return stop, None

    def _append(self, inode_id: int, start: int, stop: int, block: Optional[int]) -> None:
        """Add uncached pages ``start..stop-1`` (on blocks ``block..``)
        at the MRU end, extending the newest extent if they continue it
        in file, index and block."""
        lru = self._lru
        tail = lru.prev
        if (
            tail.stop == start
            and tail.inode_id == inode_id
            and (block is None if tail.block is None else tail.block + start - tail.start == block)
        ):
            tail.stop = stop
        else:
            extent = _Extent(inode_id, start, stop, block)
            extent.prev = tail
            extent.next = lru
            tail.next = lru.prev = extent
            entry = self._extents.get(inode_id)
            if entry is None:
                self._extents[inode_id] = ([start], [extent])
            else:
                starts, extents = entry
                j = bisect_left(starts, start)
                starts.insert(j, start)
                extents.insert(j, extent)
        self._clean_pages += stop - start

    def _take(self, extent: _Extent, start: int, stop: int) -> None:
        """Remove pages ``start..stop-1`` from *extent*; what is left of
        it keeps its place in the LRU."""
        self._clean_pages -= stop - start
        if start > extent.start:
            if stop < extent.stop:
                # Split: the pages after the cut follow in the LRU.
                right = _Extent(extent.inode_id, stop, extent.stop, extent.block_of(stop))
                right.prev = extent
                right.next = extent.next
                extent.next.prev = right
                extent.next = right
                starts, extents = self._extents[extent.inode_id]
                j = bisect_left(starts, stop)
                starts.insert(j, stop)
                extents.insert(j, right)
            extent.stop = start
            return
        starts, extents = self._extents[extent.inode_id]
        j = bisect_left(starts, start)
        if stop < extent.stop:
            extent.start = starts[j] = stop
            if extent.block is not None:
                extent.block += stop - start
            return
        extent.prev.next = extent.next
        extent.next.prev = extent.prev
        del starts[j], extents[j]
        if not starts:
            del self._extents[extent.inode_id]

    def _touch(self, extent: _Extent, start: int, stop: int) -> None:
        """Pages ``start..stop-1`` of *extent* were read: move them to
        the MRU end, in index order, as per-page touches would."""
        if extent is self._lru.prev and stop == extent.stop:
            return  # already the newest pages, in this order
        block = extent.block_of(start)
        self._take(extent, start, stop)
        self._append(extent.inode_id, start, stop, block)

    def _maybe_evict(self) -> None:
        """Evict clean pages from the LRU front while over capacity:
        whole extents first, then a trim of the last one reached."""
        clean = self._clean_pages
        excess = min(len(self._pages) + clean - self.capacity_pages, clean)
        if excess > 0:
            self.evictions += excess
            lru = self._lru
            while excess:
                extent = lru.next
                stop = min(extent.stop, extent.start + excess)
                excess -= stop - extent.start
                self._take(extent, extent.start, stop)
