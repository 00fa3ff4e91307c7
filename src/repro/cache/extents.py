"""Clean pages as extents: runs of one file's clean pages in LRU order."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cache.page import PageKey


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


class CleanExtents:
    """The clean side of a page cache: an LRU list of *extents* (runs
    of clean pages of one file, adjacent in LRU order, on consecutive
    disk blocks), not one entry per page.  Expanding the extents front
    to back gives the exact page order of a per-page LRU.
    :class:`~repro.cache.cache.PageCache` builds on it.
    """

    def __init__(self):
        #: Sentinel of the circular LRU list of clean extents: ``next``
        #: is the least recently used, ``prev`` the newest.  Only clean
        #: pages are evictable, so eviction pops and trims from the front.
        self._lru = _Extent(-1, 0, 0, None)
        self._lru.prev = self._lru.next = self._lru
        #: Per file: the sorted starts of its clean extents, beside the
        #: extents themselves (plain ints, so ``bisect`` runs in C).
        self._extents: Dict[int, Tuple[List[int], List[_Extent]]] = {}
        self._clean_pages = 0

    @property
    def clean_pages(self) -> int:
        return self._clean_pages

    def clean_keys(self) -> Iterator[PageKey]:
        """Keys of the clean pages in LRU order, next eviction victim
        first (read-only: do not mutate the cache while iterating)."""
        lru = self._lru
        extent = lru.next
        while extent is not lru:
            for index in range(extent.start, extent.stop):
                yield PageKey(extent.inode_id, index)
            extent = extent.next

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
