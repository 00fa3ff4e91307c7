"""Dirty page-cache data (Linux ``struct page`` + ``buffer_head``), kept
as runs of pages that share one state."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.core.tags import CauseSet, EMPTY_CAUSES

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.cache import PageCache
    from repro.fs.inode import Run


class PageKey(NamedTuple):
    """Identity of a page: (inode id, page index within the file)."""

    inode_id: int
    index: int


class DirtyRun:
    """Dirty pages ``start..stop-1`` of one file that share one state.

    This is Do et al.'s *data block* (PAPERS.md): the pages carry one
    cause set, one birth time ``dirtied_at`` and one writeback state,
    and sit on disk blocks ``disk_block..disk_block+len-1`` (all None
    while allocation is delayed).  A write, flush, free or failed write
    that reaches only part of a run first splits it, so a page whose
    state diverges from its neighbours is a run of its own; the cache
    keeps no per-page object.

    State machine: *dirty* → *under writeback* → *clean*.  A run
    re-dirtied while under writeback stays dirty after the write
    completes.  ``batch`` is the run list of the write carrying it (a
    piece split off in flight joins that list), and ``prev``/``next``
    link the cache's age list; both are None once the run has left the
    cache (cleaned, freed or dropped).
    """

    __slots__ = (
        "inode_id",
        "start",
        "stop",
        "cache",
        "dirty",
        "under_writeback",
        "redirtied",
        "causes",
        "dirtied_at",
        "disk_block",
        "batch",
        "prev",
        "next",
    )

    def __init__(
        self,
        inode_id: int,
        start: int,
        stop: int,
        cache: "PageCache",
        disk_block: Optional[int] = None,
        causes: CauseSet = EMPTY_CAUSES,
        dirtied_at: Optional[float] = None,
    ):
        # Born on its pages' clean->dirty transition, by *causes* at *dirtied_at*.
        self.inode_id = inode_id
        self.start = start
        self.stop = stop
        self.cache = cache
        self.dirty = True
        self.under_writeback = False
        #: Dirtied again while its last writeback I/O was in flight
        #: (reset when the next one is submitted).
        self.redirtied = False
        self.causes: CauseSet = causes
        self.dirtied_at: Optional[float] = dirtied_at
        #: Disk block of page *start*; None while allocation is delayed.
        self.disk_block = disk_block
        self.batch: Optional[List["DirtyRun"]] = None
        self.prev = self.next = None

    @property
    def key(self) -> PageKey:
        """The key of the run's first page."""
        return PageKey(self.inode_id, self.start)

    def __len__(self) -> int:
        return self.stop - self.start

    def block_of(self, index: int) -> Optional[int]:
        block = self.disk_block
        return None if block is None else block + index - self.start

    def write_submitted(self, batch: Optional[List["DirtyRun"]] = None) -> None:
        """The run's writeback I/O, carrying the runs *batch* (this run
        alone by default), entered the block layer."""
        self.under_writeback = True
        self.redirtied = False
        self.batch = [self] if batch is None else batch

    def write_completed(self) -> None:
        """The device finished the write carrying this run: the form of
        :meth:`PageCache.write_completed` for a run written alone."""
        self.cache.write_completed(self.batch or [self])

    def write_failed(self) -> None:
        """The run's writeback I/O failed permanently.

        The data never reached the device, so the run stays dirty
        (re-dirtied, in kernel terms) and becomes eligible for a later
        flush attempt instead of being cleaned.
        """
        self.under_writeback = False
        self.redirtied = False
        self.batch = None

    def __repr__(self) -> str:
        state = "dirty" if self.dirty else "clean"
        if self.under_writeback:
            state += "+wb"
        return f"<DirtyRun {self.inode_id}:{self.start}-{self.stop - 1} {state}>"


class DirtyRuns:
    """The dirty runs of one page cache, as a clean LRU's extents are
    kept: per file, the sorted starts of its runs beside the runs
    (plain ints, so ``bisect`` runs in C), plus a circular age list
    whose sentinel's ``next`` is the oldest run and ``prev`` the
    newest.  A run enters the age list on its pages' clean->dirty
    transition, and a piece split off follows its run, so expanding the
    list front to back gives the page order of a per-page dirty list.
    ``pages`` counts the pages of all runs.
    """

    __slots__ = ("files", "age", "pages")

    def __init__(self, cache: "PageCache"):
        self.files: Dict[int, Tuple[List[int], List[DirtyRun]]] = {}
        self.age = DirtyRun(-1, 0, 0, cache)
        self.age.prev = self.age.next = self.age
        self.pages = 0

    def __iter__(self) -> Iterator[DirtyRun]:
        """Every run, oldest first (do not add or remove runs while
        iterating)."""
        age = self.age
        run = age.next
        while run is not age:
            yield run
            run = run.next

    def find(self, inode_id: int, index: int) -> Optional[DirtyRun]:
        """The run holding page *index* of a file, or None."""
        entry = self.files.get(inode_id)
        if entry is not None:
            starts, runs = entry
            j = bisect_right(starts, index) - 1
            if j >= 0 and index < runs[j].stop:
                return runs[j]
        return None

    def covering(self, inode_id: int, first: int, stop: int) -> List[DirtyRun]:
        """The runs of a file holding any of pages ``first..stop-1``, in
        file order (a copy: splitting them leaves it as it is)."""
        entry = self.files.get(inode_id)
        if entry is None:
            return []
        starts, runs = entry
        j = bisect_right(starts, first) - 1
        if j < 0 or runs[j].stop <= first:
            j += 1
        return runs[j:bisect_left(starts, stop)]

    def isolate(self, inode_id: int, first: int, stop: int) -> List[DirtyRun]:
        """:meth:`covering`, with the runs reaching past either end split
        there, so the runs listed hold exactly the dirty pages."""
        runs = self.covering(inode_id, first, stop)
        if runs:
            if runs[0].start < first:
                runs[0] = self.split(runs[0], first)
            if runs[-1].stop > stop:
                self.split(runs[-1], stop)
        return runs

    def split(self, run: DirtyRun, at: int) -> DirtyRun:
        """Cut *run* before page *at*; returns the new run of pages
        ``at..``, which follows *run* in age order and, in flight, in
        the write carrying both."""
        right = DirtyRun(
            run.inode_id, at, run.stop, run.cache, run.block_of(at), run.causes, run.dirtied_at
        )
        right.under_writeback = run.under_writeback
        right.redirtied = run.redirtied
        run.stop = at
        starts, runs = self.files[run.inode_id]
        j = bisect_right(starts, at)
        starts.insert(j, at)
        runs.insert(j, right)
        right.prev = run
        right.next = run.next
        run.next.prev = right
        run.next = right
        batch = run.batch
        if batch is not None:
            right.batch = batch
            batch.insert(batch.index(run) + 1, right)
        return right

    def oldest(self, limit: Optional[int]) -> List[DirtyRun]:
        """The runs not under writeback, oldest first, cut to their
        first *limit* pages (all of them without a limit)."""
        runs = []
        count = 0
        for run in self:
            if limit is not None and count >= limit:
                break
            if not run.under_writeback:
                runs.append(run)
                count += run.stop - run.start
        return self.first_pages(runs, limit)

    def assign(self, inode_id: int, index: int, block: int) -> Optional[DirtyRun]:
        """Dirty page *index* of a file takes disk *block* if its run has
        none (cutting the page out of a longer run); returns the run
        holding the page, or None if it is not dirty."""
        run = self.find(inode_id, index)
        if run is not None and run.disk_block is None:
            if run.stop - run.start > 1:
                run = self.isolate(inode_id, index, index + 1)[0]
            run.disk_block = block
        return run

    def take_blocks(self, inode_id: int, mapped: List["Run"]) -> None:
        """The dirty pages of a file's *mapped* runs (``(index, disk
        block, count)``, from its :meth:`BlockMap.runs`) take those
        blocks, splitting runs where that makes their blocks diverge."""
        for i, block, count in mapped:
            end = i + count
            for run in self.covering(inode_id, i, end):
                lo = max(run.start, i)
                if run.block_of(lo) == block + lo - i:
                    continue  # already there (runs sit on consecutive blocks)
                if run.start < lo:
                    run = self.split(run, lo)
                if run.stop > end:
                    self.split(run, end)
                run.disk_block = block + lo - i

    def first_pages(self, runs: List[DirtyRun], limit: Optional[int]) -> List[DirtyRun]:
        """*runs* cut to their first *limit* pages (all of them without
        a limit), splitting the run that reaches past it."""
        if limit is None:
            return runs
        if limit <= 0:
            return []
        count = 0
        for k, run in enumerate(runs):
            count += len(run)
            if count >= limit:
                if count > limit:
                    self.split(run, run.stop - (count - limit))
                return runs[:k + 1]
        return runs

    def add(self, entry: Tuple[List[int], List[DirtyRun]], at: int, run: DirtyRun) -> None:
        """Add a newly born *run* at position *at* of its file's *entry*,
        as the newest run."""
        starts, runs = entry
        starts.insert(at, run.start)
        runs.insert(at, run)
        age = self.age
        newest = age.prev
        run.prev = newest
        run.next = age
        newest.next = age.prev = run
        self.pages += run.stop - run.start

    def remove(self, run: DirtyRun) -> None:
        """Take *run* out (cleaned or freed)."""
        starts, runs = self.files[run.inode_id]
        j = bisect_left(starts, run.start)
        del starts[j], runs[j]
        if not starts:
            del self.files[run.inode_id]
        run.prev.next = run.next
        run.next.prev = run.prev
        run.prev = run.next = None
        self.pages -= run.stop - run.start

    def clear(self) -> List[DirtyRun]:
        """Take every run out at once; returns them, oldest first."""
        runs = list(self)
        for run in runs:
            run.prev = run.next = None
        self.age.prev = self.age.next = self.age
        self.files.clear()
        self.pages = 0
        return runs
