"""The page cache proper: lookup, dirtying, eviction, accounting."""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.cache.page import Page, PageKey
from repro.core.tags import EMPTY_CAUSES, TagManager
from repro.obs.bus import PageCleaned, PageDirtied, PageFreed, StackBus
from repro.units import GB, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.proc import Task
    from repro.sim.core import Environment

#: ``mark_dirty_range``'s marker for a key absent from the clean LRU (a clean
#: page's disk block may itself be None).
_UNCACHED = object()


class PageCache:
    """An LRU page cache with dirty-page accounting and split hooks.

    The split framework's memory-level hooks (`buffer-dirty`,
    `buffer-free`, Table 2) fire from here — published as
    :class:`~repro.obs.bus.PageDirtied` / :class:`PageFreed` events on
    the stack bus, so any number of subscribers (the installed split
    scheduler, span builders, tests) observe them.  A stack running a
    pure block-level scheduler has no memory subscribers, which is
    exactly the information gap the paper describes.
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
        #: Clean pages, least recently used first: ``(inode_id, index)
        #: -> disk block`` (None for a zero-filled sparse page).  Keys
        #: are plain tuples, which hash and compare equal to PageKey.
        #: Only these pages are evictable, so eviction is O(1).
        self._clean_lru: "OrderedDict[Tuple[int, int], Optional[int]]" = OrderedDict()
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
        return len(self._pages) + len(self._clean_lru)

    @property
    def dirty_pages(self) -> int:
        return len(self._pages)

    @property
    def dirty_fraction(self) -> float:
        return self.dirty_bytes / self.memory_bytes

    def contains(self, key: PageKey) -> bool:
        return key in self._clean_lru or key in self._pages

    def dirty_pages_of(self, inode_id: int) -> List[Page]:
        """All dirty pages of one file, in file order."""
        index = self._dirty_by_inode.get(inode_id)
        if not index:
            return []
        pages = [
            self._pages[key] for key in index if not self._pages[key].under_writeback
        ]
        pages.sort(key=lambda p: p.key.index)
        return pages

    def dirty_bytes_of(self, inode_id: int) -> int:
        """Dirty bytes of one file (including pages under writeback)."""
        index = self._dirty_by_inode.get(inode_id)
        return len(index) * PAGE_SIZE if index else 0

    def iter_dirty_by_age(self) -> Iterator[Page]:
        """Dirty pages not under writeback, oldest first, lazily."""
        for page in self._pages.values():
            if not page.under_writeback:
                yield page

    def dirty_pages_by_age(self, limit: Optional[int] = None) -> List[Page]:
        """Dirty pages not under writeback, oldest first."""
        return list(islice(self.iter_dirty_by_age(), limit))

    # -- mutation ----------------------------------------------------------

    def lookup_range(
        self,
        inode_id: int,
        first: int,
        stop: int,
        block_map: Dict[int, int],
        readahead: bool = False,
    ) -> List[Tuple[int, int]]:
        """Look up pages ``first..stop-1`` of a file for a read.

        Returns the ``(index, disk block)`` pairs the caller must fetch
        (and then add with :meth:`insert_clean_run`).  For a read, each
        cached page is a hit and moves to the MRU end; a page with no
        disk block is a sparse hole, zero-filled as a clean hit; the
        rest are misses.  A *readahead* probe only reports the uncached
        pages that have a disk block: it touches and counts nothing.
        """
        lru, pages = self._clean_lru, self._pages
        if readahead:
            return [
                (index, block)
                for index in range(first, stop)
                if (inode_id, index) not in lru
                and (inode_id, index) not in pages
                and (block := block_map.get(index)) is not None
            ]
        touch = lru.move_to_end
        missing: List[Tuple[int, int]] = []
        hits = 0
        for index in range(first, stop):
            key = (inode_id, index)
            if key in lru:
                touch(key)
            elif key not in pages:
                block = block_map.get(index)
                if block is not None:
                    missing.append((index, block))
                    continue
                lru[key] = None  # zero fill, no I/O
                self._maybe_evict()
            hits += 1
        self.hits += hits
        self.misses += len(missing)
        return missing

    def insert_clean_run(self, inode_id: int, pairs: List[Tuple[int, int]]) -> None:
        """Add pages just read from disk, none of them cached yet.

        *pairs* are ``(index, disk block)``; the pages join the MRU end
        in order, then the LRU front is evicted down to capacity — the
        same pages a page-at-a-time insert would evict.
        """
        lru = self._clean_lru
        for index, block in pairs:
            lru[(inode_id, index)] = block
        self._maybe_evict()

    def mark_dirty_range(
        self,
        inode_id: int,
        first: int,
        stop: int,
        block_map: Mapping[int, int],
        task: "Task",
    ) -> Optional[Page]:
        """Dirty pages ``first..stop-1`` of a file on behalf of *task*.

        This is the buffered write path's one cache call.  Each page is
        dirtied in file order exactly as on its own: an uncached page is
        born (and may evict a clean one), an already-dirty page counts
        as an overwrite and merges *task*'s causes into its own, and the
        buffer-dirty hook fires with the page's previous causes so a
        scheduler can shift accounting to the last writer if its policy
        wants that (§4.2).  After its hook, a page takes its disk block
        from *block_map* when the file has one there (otherwise its
        allocation stays delayed).  Returns the last page dirtied.
        """
        causes = self.tags.current_causes(task)
        account_tag = self.tags.account_tag
        pages, lru, by_inode = self._pages, self._clean_lru, self._dirty_by_inode
        subscribers, publish = self._sub_dirtied, self.bus.publish
        now = self.env.now
        page = None
        for index in range(first, stop):
            page = pages.get((inode_id, index))
            if page is None:
                # Clean (or uncached) -> dirty: the page object is born here.
                block = lru.pop((inode_id, index), _UNCACHED)
                key = PageKey(inode_id, index)
                page = Page(key, self, None if block is _UNCACHED else block)
                pages[key] = page
                if block is _UNCACHED:
                    self._maybe_evict()
                old_causes = EMPTY_CAUSES
                page.dirty = True
                page.dirtied_at = now
                page.causes = causes
                dirty = by_inode.get(inode_id)
                if dirty is None:
                    dirty = by_inode[inode_id] = OrderedDict()
                dirty[key] = None
                self.dirty_bytes += PAGE_SIZE
                account_tag(page, causes)
            else:
                old_causes = page.causes
                self.overwrites += 1
                merged = old_causes | causes
                if merged is not old_causes:
                    # Re-price the tag only when the cause set grew.
                    page.causes = merged
                    account_tag(page, merged)
                if page.under_writeback:
                    page.redirtied = True
            if subscribers:
                publish(PageDirtied(now, page, old_causes))
            block = block_map.get(index)
            if block is not None:
                page.disk_block = block
        return page

    def mark_dirty(self, key: PageKey, task: "Task") -> Page:
        """Dirty one page: :meth:`mark_dirty_range` over *key* alone,
        leaving its disk block as it is."""
        return self.mark_dirty_range(key.inode_id, key.index, key.index + 1, {}, task)

    def page_cleaned(self, page: Page) -> None:
        """Writeback for *page* finished and it was not re-dirtied.

        A completion for a page the cache no longer holds (freed or
        dropped while its write was in flight) is ignored: the page's
        accounting already left with it, and a newer page may now hold
        the same key.
        """
        key = page.key
        if not page.dirty or self._pages.get(key) is not page:
            return
        page.dirty = False
        page.dirtied_at = None
        del self._pages[key]
        self._discard_dirty(key)
        self.dirty_bytes -= PAGE_SIZE
        self.tags.release_tag(page)
        page.causes = EMPTY_CAUSES
        self._clean_lru[key] = page.disk_block
        if self._sub_cleaned:
            self.bus.publish(PageCleaned(self.env.now, page))
        self._maybe_evict()

    def free(self, key: PageKey) -> None:
        """Drop a page (file deletion / truncation).

        A dirty page freed before writeback fires the buffer-free hook:
        the work disappeared, and schedulers may refund its cost.
        """
        page = self._pages.pop(key, None)
        if page is None:
            self._clean_lru.pop(key, None)
            return
        self._discard_dirty(key)
        self.dirty_bytes -= PAGE_SIZE
        self.tags.release_tag(page)
        if self._sub_freed:
            self.bus.publish(PageFreed(self.env.now, page))

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
        orderly teardown in a crash.  Returns the number of pages
        dropped.  Only meaningful on a halted environment.
        """
        count = len(self)
        self._pages.clear()
        self._clean_lru.clear()
        self._dirty_by_inode.clear()
        self.dirty_bytes = 0
        return count

    def free_file(self, inode_id: int) -> int:
        """Drop every cached page of a file; returns count freed.

        Dirty pages are freed (and publish :class:`PageFreed`) oldest
        first.
        """
        lru = self._clean_lru
        clean = [key for key in lru if key[0] == inode_id]
        for key in clean:
            del lru[key]
        dirty = list(self._dirty_by_inode.get(inode_id, ()))
        for key in dirty:
            self.free(key)
        return len(clean) + len(dirty)

    def _maybe_evict(self) -> None:
        """Evict clean pages from the LRU front while over capacity."""
        lru = self._clean_lru
        excess = min(len(self._pages) + len(lru) - self.capacity_pages, len(lru))
        if excess > 0:
            for _ in range(excess):
                lru.popitem(last=False)
            self.evictions += excess

