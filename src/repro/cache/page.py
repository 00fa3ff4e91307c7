"""A page-cache page (Linux ``struct page`` + ``buffer_head``)."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.core.tags import CauseSet, EMPTY_CAUSES
from repro.units import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.cache import PageCache


class PageKey(NamedTuple):
    """Identity of a page: (inode id, page index within the file)."""

    inode_id: int
    index: int


class Page:
    """One 4 KiB dirty page of a file.

    State machine: *clean* ⇄ *dirty* → *under writeback* → *clean*.
    A page re-dirtied while under writeback stays dirty after the write
    completes.  The page carries the split framework's cause tag and the
    (possibly delayed) disk block assignment.  The cache keeps a clean
    page as a bare key and disk block, so a ``Page`` exists only from
    its clean->dirty transition until its writeback completes; only
    these states carry tags, bus events and block-request references.
    """

    __slots__ = (
        "key",
        "cache",
        "dirty",
        "under_writeback",
        "redirtied",
        "causes",
        "dirtied_at",
        "disk_block",
    )

    def __init__(self, key: PageKey, cache: "PageCache", disk_block: Optional[int] = None):
        self.key = key
        self.cache = cache
        self.dirty = False
        self.under_writeback = False
        #: Dirtied again while its writeback I/O was in flight.
        self.redirtied = False
        self.causes: CauseSet = EMPTY_CAUSES
        self.dirtied_at: Optional[float] = None
        #: Disk block backing this page; None while allocation is delayed.
        self.disk_block = disk_block

    @property
    def size(self) -> int:
        return PAGE_SIZE

    @property
    def allocated(self) -> bool:
        return self.disk_block is not None

    def write_submitted(self) -> None:
        """The page's writeback I/O entered the block layer."""
        self.under_writeback = True
        self.redirtied = False

    def write_completed(self) -> None:
        """The device finished writing this page (block-layer callback)."""
        self.under_writeback = False
        if self.redirtied:
            self.redirtied = False
            return  # still dirty: it was modified mid-flight
        if self.dirty:
            self.cache.page_cleaned(self)

    def write_failed(self) -> None:
        """The page's writeback I/O failed permanently.

        The data never reached the device, so the page stays dirty
        (re-dirtied, in kernel terms) and becomes eligible for a later
        flush attempt instead of being cleaned.
        """
        self.under_writeback = False
        self.redirtied = False

    def __repr__(self) -> str:
        state = "dirty" if self.dirty else "clean"
        if self.under_writeback:
            state += "+wb"
        return f"<Page {self.key.inode_id}:{self.key.index} {state}>"
