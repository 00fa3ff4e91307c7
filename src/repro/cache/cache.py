"""The page cache proper: lookup, dirtying, eviction, accounting."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.cache.extents import CleanExtents
from repro.cache.page import DirtyRun, DirtyRuns, PageKey
from repro.core.tags import EMPTY_CAUSES, CauseSet, TagManager
from repro.obs.bus import PageCleaned, PageDirtied, PageFreed, StackBus
from repro.units import GB, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.inode import BlockMap, Run
    from repro.proc import Task
    from repro.sim.core import Environment


class PageCache(CleanExtents):
    """An LRU page cache with dirty-page accounting and split hooks.

    The split framework's memory-level hooks (`buffer-dirty`,
    `buffer-free`, Table 2) fire from here — published as
    :class:`~repro.obs.bus.PageDirtied` / :class:`PageFreed` events on
    the stack bus, so any number of subscribers (the installed split
    scheduler, span builders, tests) observe them.  A stack running a
    pure block-level scheduler has no memory subscribers, which is
    exactly the information gap the paper describes.

    Clean pages carry no identity the schedulers read, so they live in
    an LRU list of extents (:class:`CleanExtents`): hits, misses and
    evictions are those of a per-page LRU, and a cold streaming read
    costs O(extents) list operations, not O(pages).

    Dirty pages live the same way, as :class:`DirtyRun` objects: pages
    of one file dirtied together, sharing causes, birth time, block run
    and writeback state.  Births, overwrites, writeback, completion and
    frees cost O(runs); an operation that reaches part of a run splits
    it first.  Expanding the age list front to back gives the exact
    page order of a per-page dirty list.
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
        CleanExtents.__init__(self)
        self.env = env
        self.tags = tags
        self.memory_bytes = memory_bytes
        self.capacity_pages = memory_bytes // PAGE_SIZE
        #: Dirty pages (including those under writeback), as runs.
        self._dirty = DirtyRuns(self)
        #: Page tags and their bytes lost with dirty runs in a crash
        #: (:meth:`drop_volatile`): they stay allocated.
        self.lost_tags = self.lost_tag_bytes = 0
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
        return self._dirty.pages + self._clean_pages

    @property
    def dirty_pages(self) -> int:
        return self._dirty.pages

    @property
    def dirty_fraction(self) -> float:
        return self.dirty_bytes / self.memory_bytes

    def contains(self, key: PageKey) -> bool:
        inode_id, index = key
        return (
            self.dirty_run(key) is not None
            or self._locate(inode_id, index, index + 1)[1] is not None
        )

    def contains_range(self, inode_id: int, first: int, stop: int) -> bool:
        """Whether every page ``first..stop-1`` of a file is cached,
        dirty or clean: clean extents answer for their runs, and only
        the gaps between them are checked against the dirty runs."""
        index = first
        while index < stop:
            end, extent = self._locate(inode_id, index, stop)
            if extent is None:
                covered = index
                for run in self._dirty.covering(inode_id, index, end):
                    if run.start > covered:
                        return False
                    covered = run.stop
                if covered < end:
                    return False
            index = end
        return True

    def dirty_run(self, key: PageKey) -> Optional[DirtyRun]:
        """The dirty run holding page *key*, or None if it is not dirty."""
        return self._dirty.find(*key)

    def dirty_runs(self) -> Iterator[DirtyRun]:
        """Every dirty run, under writeback or not, oldest first
        (read-only: do not mutate the cache while iterating)."""
        return iter(self._dirty)

    def dirty_pages_of(self, inode_id: int, limit: Optional[int] = None) -> List[DirtyRun]:
        """The dirty runs of one file not under writeback, in file
        order; with *limit*, only its first *limit* pages (the run
        reaching past it is cut there)."""
        entry = self._dirty.files.get(inode_id)
        if entry is None:
            return []
        return self._dirty.first_pages([run for run in entry[1] if not run.under_writeback], limit)

    def dirty_bytes_of(self, inode_id: int) -> int:
        """Dirty bytes of one file (including pages under writeback)."""
        entry = self._dirty.files.get(inode_id)
        return sum(map(len, entry[1])) * PAGE_SIZE if entry else 0

    def oldest_dirty(self) -> Optional[DirtyRun]:
        """The oldest dirty run not under writeback, or None."""
        age = self._dirty.age
        run = age.next
        while run is not age:
            if not run.under_writeback:
                return run
            run = run.next
        return None

    def dirty_pages_by_age(self, limit: Optional[int] = None) -> List[DirtyRun]:
        """Dirty runs not under writeback, oldest first; with *limit*,
        only the oldest *limit* pages (the run reaching past it is cut
        there)."""
        return self._dirty.oldest(limit)

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
        dirty = inode_id in self._dirty.files
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
            # the uncached pages between dirty runs are looked up apart.
            if dirty:
                pieces = []
                lo = index
                for run in self._dirty.covering(inode_id, index, end):
                    start = max(run.start, index)
                    if lo < start:
                        pieces.append((lo, start))
                    lo = min(run.stop, end)
                    hits += lo - start
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
            if missing:
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
    ) -> None:
        """Dirty pages ``first..stop-1`` of a file on behalf of *task*
        (*causes* is *task*'s current cause set, if the caller already
        looked it up).

        This is the buffered write path's one cache call.  Pages are
        dirtied in file order, in *stretches*: consecutive pages that
        carried the same cause set object before this write (pages born
        clean->dirty form stretches with the empty set).  An uncached
        page is born (and may evict a clean one) as on its own; an
        already-dirty page counts as an overwrite, and its stretch
        merges *task*'s causes into the old set once, so all its pages
        share the merged set.  Each stretch then re-prices its pages'
        tags with one call and publishes one buffer-dirty event with its
        old causes, so a scheduler can skip overwrites or shift
        accounting to the last writer if its policy wants that (§4.2).
        After its stretch's event, the stretch's pages take their disk
        blocks from the extents of *block_map* there (a page outside
        them keeps its allocation delayed; without a *block_map*, every
        page keeps its block).

        A stretch of births becomes one new run per piece of
        consecutive disk blocks (one run for an append).  Births go an
        extent at a time: a clean piece leaves its extent with one
        take, and an uncached piece evicts once after its pages are
        born.  A born page is dirty, never in the clean LRU, so births
        cannot reorder the LRU front: evicting once after the piece
        pops the same pages as evicting after each birth, and the next
        piece is located after that eviction, as the next page would
        be.  Births whose pages all left clean extents with disk blocks
        do no block work: a clean page's block is its file's block-map
        entry.

        An overwrite stretch splits the runs at its ends only if it
        changes them (a new writer, or a run under writeback, which it
        re-dirties); an overwrite by the run's own writer costs one
        lookup.  A stretch of runs that all have disk blocks does no
        block work either: a dirty page's block, once set, is its
        file's block-map entry.
        """
        if causes is None:
            causes = self.tags.current_causes(task)
        if stop == first + 1:
            self._dirty_one(inode_id, first, block_map, causes)
            return
        files = self._dirty.files
        index = first
        while index < stop:
            entry = files.get(inode_id)
            if entry is None:
                index = self._births(inode_id, index, stop, block_map, causes, None)
                continue
            starts, runs = entry
            j = bisect_right(starts, index) - 1
            if j >= 0 and index < runs[j].stop:
                index = self._overwrite(runs, j, index, stop, block_map, causes)
            else:
                # The births stretch ends at the file's next dirty run.
                j += 1
                end = starts[j] if j < len(starts) and starts[j] < stop else stop
                index = self._births(inode_id, index, end, block_map, causes, entry)

    def _dirty_one(self, inode_id, index, block_map, causes) -> DirtyRun:
        """:meth:`mark_dirty_range` over page *index* alone: the same
        event, tags and blocks, without the stretch bookkeeping."""
        dirty = self._dirty
        entry = dirty.files.get(inode_id)
        if entry is None:
            entry = dirty.files[inode_id] = ([], [])
            at = 0
        else:
            starts, runs = entry
            at = bisect_right(starts, index)
            if at and index < runs[at - 1].stop:
                run = runs[at - 1]
                old = run.causes
                # A writer already in the set needs no union (it would
                # return *old* itself).
                merged = old if causes.pids <= old.pids else old | causes
                self.overwrites += 1
                if merged is not old or run.under_writeback:
                    if run.stop - run.start > 1:
                        run = dirty.isolate(inode_id, index, index + 1)[0]
                    if run.under_writeback:
                        run.redirtied = True
                    if merged is not old:
                        run.causes = merged
                        self.tags.account_tags(1, merged, old)
                if self._sub_dirtied:
                    self.bus.publish(
                        PageDirtied(self.env.now, inode_id, index, index + 1, merged, old)
                    )
                if run.disk_block is None and block_map is not None:
                    block = block_map.get(index)
                    if block is not None:
                        run = dirty.assign(inode_id, index, block)
                return run
        now = self.env.now
        extent = self._locate(inode_id, index, index + 1)[1]
        block = None if extent is None else self._take(extent, index, index + 1)
        run = DirtyRun(inode_id, index, index + 1, self, block, causes, now)
        dirty.add(entry, at, run)
        self.dirty_bytes += PAGE_SIZE
        if extent is None:
            self._maybe_evict()
        self.tags.account_tags(1, causes)
        if self._sub_dirtied:
            self.bus.publish(PageDirtied(now, inode_id, index, index + 1, causes, EMPTY_CAUSES))
        if block is None and block_map is not None:
            run.disk_block = block_map.get(index)
        return run

    def _births(self, inode_id, first, stop, block_map, causes, entry) -> int:
        """Dirty the uncached or clean pages ``first..stop-1``."""
        now = self.env.now
        born: List[DirtyRun] = []
        dirty = self._dirty
        if entry is None:
            entry = dirty.files[inode_id] = ([], [])
        at = bisect_left(entry[0], first)
        from_extents = True
        index = first
        while index < stop:
            end, extent = self._locate(inode_id, index, stop)
            if extent is None:
                block = None
                from_extents = False
            else:
                block = self._take(extent, index, end)
                if block is None:
                    from_extents = False
            last = born[-1] if born else None
            if last is not None and (
                block is None if last.disk_block is None
                else block == last.disk_block + index - last.start
            ):
                last.stop = end  # continues the previous piece on disk
                dirty.pages += end - index
            else:
                run = DirtyRun(inode_id, index, end, self, block, causes, now)
                dirty.add(entry, at, run)
                at += 1
                born.append(run)
            self.dirty_bytes += PAGE_SIZE * (end - index)
            index = end
            if extent is None:
                self._maybe_evict()
        self.tags.account_tags(stop - first, causes)
        if self._sub_dirtied:
            self.bus.publish(PageDirtied(now, inode_id, first, stop, causes, EMPTY_CAUSES))
        if block_map is not None and not from_extents:
            mapped = block_map.runs(first, stop)
            if mapped:
                dirty.take_blocks(inode_id, mapped)
        return stop

    def _overwrite(self, runs, j, index, stop, block_map, causes) -> int:
        """Overwrite the dirty runs from ``runs[j]`` (holding page
        *index*) on that share its cause set object, up to *stop*;
        returns where the stretch ends."""
        run = runs[j]
        old = run.causes
        # A writer already in the set (the steady state of a cached
        # overwrite) needs no union: it would return *old* itself.
        merged = old if causes.pids <= old.pids else old | causes
        stretch = [run]
        end = run.stop
        flushing = run.under_writeback
        delayed = run.disk_block is None
        last = len(runs) - 1
        while end < stop and j < last:
            j += 1
            run = runs[j]
            if run.start != end or run.causes is not old:
                break
            stretch.append(run)
            end = run.stop
            if run.under_writeback:
                flushing = True
            if run.disk_block is None:
                delayed = True
        if end > stop:
            end = stop
        self.overwrites += end - index
        changed = merged is not old
        if changed or flushing:
            head = stretch[0]
            if head.start < index and (changed or head.under_writeback):
                stretch[0] = self._dirty.split(head, index)
            tail = stretch[-1]
            if tail.stop > end and (changed or tail.under_writeback):
                self._dirty.split(tail, end)
            for run in stretch:
                if run.under_writeback:
                    run.redirtied = True
                if changed:
                    run.causes = merged
            if changed:
                self.tags.account_tags(end - index, merged, old)
        if self._sub_dirtied:
            self.bus.publish(
                PageDirtied(self.env.now, stretch[0].inode_id, index, end, merged, old)
            )
        # Splitting keeps each piece's block state, so the stretch
        # holds a page waiting for allocation iff it did before.
        if block_map is not None and delayed:
            mapped = block_map.runs(index, end)
            if mapped:
                self._dirty.take_blocks(stretch[0].inode_id, mapped)
        return end

    def mark_dirty(self, key: PageKey, task: "Task") -> DirtyRun:
        """Dirty one page: :meth:`mark_dirty_range` over *key* alone,
        leaving its disk block as it is; returns the run holding it."""
        return self._dirty_one(key.inode_id, key.index, None, self.tags.current_causes(task))

    def assign_block(self, inode_id: int, index: int, block: int) -> None:
        """A dirty page waiting for delayed allocation takes *block*,
        which its file just allocated for it (an O_DIRECT write)."""
        self._dirty.assign(inode_id, index, block)

    def write_completed(self, runs: List[DirtyRun]) -> None:
        """The block write carrying *runs* finished (block-layer callback).

        Each run, in request order, leaves writeback.  One re-dirtied
        while its write was in flight stays dirty.  One the cache no
        longer holds (freed or dropped while in flight) is ignored: its
        accounting already left with it, and a newer run may now hold
        the same pages.  The rest turn clean: their tags are released,
        they join the MRU end as extents (the newest extent grows when
        a run continues it in file and on disk), ``PageCleaned`` is
        published for each in order, and the LRU front is evicted once.

        Cleaning moves a page from dirty to clean, so the cache's length
        never changes, and a cache that must evict held no clean page
        before this call.  Its LRU front is then this call's first
        cleaned pages, in order: evicting once pops the same pages as
        evicting after each clean (the argument of
        :meth:`insert_clean_run`).
        """
        append, release = self._append, self.tags.release_tags
        cleaned = []
        for run in runs:
            run.under_writeback = False
            run.batch = None
            if run.redirtied or run.next is None:
                continue  # modified mid-flight, or no longer cached
            self._unlink(run)
            run.dirty = False
            release(len(run), run.causes)
            run.causes = EMPTY_CAUSES
            run.dirtied_at = None
            append(run.inode_id, run.start, run.stop, run.disk_block)
            cleaned.append(run)
        if cleaned:
            if self._sub_cleaned:
                now = self.env.now
                for run in cleaned:
                    self.bus.publish(PageCleaned(now, run.inode_id, run.start, run.stop))
            self._maybe_evict()

    def free(self, key: PageKey) -> None:
        """Drop a page (file deletion / truncation): :meth:`free_range`
        over *key* alone."""
        self.free_range(key.inode_id, key.index, key.index + 1)

    def free_range(self, inode_id: int, first: int, stop: int) -> None:
        """Drop pages ``first..stop-1`` of a file (truncation): the clean
        extents there are cut out whole, then the dirty runs there are
        freed in index order.

        A dirty run freed before writeback fires the buffer-free hook:
        the work disappeared, and schedulers may refund its cost.
        """
        index = first
        while index < stop:
            end, extent = self._locate(inode_id, index, stop)
            if extent is not None:
                self._take(extent, index, end)
            index = end
        for run in self._dirty.isolate(inode_id, first, stop):
            self._free(run)

    def free_file(self, inode_id: int) -> int:
        """Drop every cached page of a file; returns count freed.

        Dirty runs are freed (and publish :class:`PageFreed`) oldest
        first.
        """
        clean = 0
        for extent in self._extents.pop(inode_id, ((), ()))[1]:
            extent.prev.next = extent.next
            extent.next.prev = extent.prev
            clean += extent.stop - extent.start
        self._clean_pages -= clean
        dirty = 0
        if inode_id in self._dirty.files:
            for run in [run for run in self._dirty if run.inode_id == inode_id]:
                dirty += len(run)
                self._free(run)
        return clean + dirty

    def drop_volatile(self) -> int:
        """Simulate power loss: every cached page vanishes, no hooks.

        DRAM contents are gone, so dirty pages are lost *without*
        firing buffer-free hooks or releasing tags — there is no
        orderly teardown in a crash.  Returns the number of pages
        dropped.  Only meaningful on a halted environment.
        """
        count = len(self)
        cost = self.tags.tag_cost
        for run in self._dirty.clear():
            self.lost_tags += len(run)
            self.lost_tag_bytes += len(run) * cost(run.causes)
        self._lru.prev = self._lru.next = self._lru
        self._extents.clear()
        self._clean_pages = 0
        self.dirty_bytes = 0
        return count

    # -- dirty runs ----------------------------------------------------------

    def _unlink(self, run: DirtyRun) -> None:
        """Take *run* out of the cache's dirty runs and bytes."""
        self._dirty.remove(run)
        self.dirty_bytes -= PAGE_SIZE * len(run)

    def _free(self, run: DirtyRun) -> None:
        """Drop a dirty run before its writeback: release its tags and
        fire the buffer-free hook."""
        self._unlink(run)
        self.tags.release_tags(len(run), run.causes)
        if self._sub_freed:
            self.bus.publish(PageFreed(self.env.now, run.inode_id, run.start, run.stop))

    def _maybe_evict(self) -> None:
        """Evict clean pages from the LRU front while over capacity:
        whole extents first, then a trim of the last one reached."""
        clean = self._clean_pages
        excess = min(self._dirty.pages + clean - self.capacity_pages, clean)
        if excess > 0:
            self.evictions += excess
            lru = self._lru
            while excess:
                extent = lru.next
                stop = min(extent.stop, extent.start + excess)
                excess -= stop - extent.start
                self._take(extent, extent.start, stop)
