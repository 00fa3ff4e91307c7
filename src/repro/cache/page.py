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
    page only as part of a run of clean pages (an extent of the clean
    LRU), so a ``Page`` exists only from its clean->dirty transition
    until its writeback completes; only these states carry tags, bus
    events and block-request references.
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
        "hint",
    )

    def __init__(
        self,
        key: PageKey,
        cache: "PageCache",
        disk_block: Optional[int] = None,
        causes: CauseSet = EMPTY_CAUSES,
        dirtied_at: Optional[float] = None,
    ):
        # Born on its clean->dirty transition, by *causes* at *dirtied_at*.
        self.key = key
        self.cache = cache
        self.dirty = True
        self.under_writeback = False
        #: Dirtied again while its last writeback I/O was in flight
        #: (reset when the next one is submitted).
        self.redirtied = False
        self.causes: CauseSet = causes
        self.dirtied_at: Optional[float] = dirtied_at
        #: Disk block backing this page; None while allocation is delayed.
        self.disk_block = disk_block
        #: The dirty-run hint listing this page, if any (live or dead;
        #: see ``_DirtyRun`` in :mod:`repro.cache.cache`).
        self.hint = None

    @property
    def size(self) -> int:
        return PAGE_SIZE

    def write_submitted(self) -> None:
        """The page's writeback I/O entered the block layer."""
        self.under_writeback = True
        self.redirtied = False

    def write_completed(self) -> None:
        """The device finished writing this page alone: the one-page form
        of :meth:`PageCache.write_completed`."""
        self.cache.write_completed((self,))

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
