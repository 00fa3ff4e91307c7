"""Inodes: per-file metadata and the index → disk-block map."""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections.abc import MutableMapping
from itertools import chain
from typing import Iterator, List, Optional, Tuple

from repro.units import PAGE_SIZE

#: ``(first page index, first disk block, page count)``: pages
#: ``index..index+count-1`` on blocks ``block..block+count-1``.
Run = Tuple[int, int, int]


class BlockMap(MutableMapping):
    """A file's page index → disk block map, kept as extents (ext4-style).

    Extent ``j`` maps pages ``starts[j]..ends[j]-1`` to consecutive
    blocks from ``blocks[j]``.  Extents are sorted and disjoint, and
    two that continue each other in both index and block are one
    extent, so a file allocated in order is a single extent however
    long it is.  The starts are plain ints, so ``bisect`` runs in C.

    The mapping interface answers page by page, as the dict it
    replaces did: ``get``, ``[]``, ``in``, ``del``, ``pop`` and
    ``len`` (O(1)) are per page, and ``keys``, ``values`` and
    ``items`` walk the pages in index order.  :meth:`runs` and
    :meth:`map_run` work an extent at a time.
    """

    __slots__ = ("_starts", "_ends", "_blocks", "_pages")

    def __init__(self, mapping=None):
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._blocks: List[int] = []
        self._pages = 0
        if mapping is not None:
            self.update(mapping)

    # -- per-page mapping interface --------------------------------------------

    def __len__(self) -> int:
        return self._pages

    def get(self, index: int, default: Optional[int] = None) -> Optional[int]:
        j = bisect_right(self._starts, index) - 1
        if j >= 0 and index < self._ends[j]:
            return self._blocks[j] + index - self._starts[j]
        return default

    def __getitem__(self, index: int) -> int:
        block = self.get(index)
        if block is None:
            raise KeyError(index)
        return block

    def __contains__(self, index) -> bool:
        return self.get(index) is not None

    def __setitem__(self, index: int, block: int) -> None:
        self.map_run(index, block, 1)

    def __delitem__(self, index: int) -> None:
        if not self.unmap(index, index + 1):
            raise KeyError(index)

    def pop(self, index: int, *default):
        removed = self.unmap(index, index + 1)
        if removed:
            return removed[0][1]
        if default:
            return default[0]
        raise KeyError(index)

    def clear(self) -> None:
        self._starts.clear()
        self._ends.clear()
        self._blocks.clear()
        self._pages = 0

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(map(range, self._starts, self._ends))

    def values(self) -> Iterator[int]:
        """The mapped disk blocks, in page index order (an iterator)."""
        block_ends = [
            block + end - start
            for start, end, block in zip(self._starts, self._ends, self._blocks)
        ]
        return chain.from_iterable(map(range, self._blocks, block_ends))

    def items(self) -> Iterator[Tuple[int, int]]:
        """``(index, block)`` pairs in index order (an iterator)."""
        return zip(iter(self), self.values())

    def __repr__(self) -> str:
        return f"BlockMap({self.runs()})"

    # -- extents -------------------------------------------------------------------

    def runs(self, first: int = 0, stop: Optional[int] = None) -> List[Run]:
        """The mapped extents clipped to pages ``first..stop-1`` (to the
        end of the map without *stop*), in index order; the spaces
        between them are holes."""
        starts, ends, blocks = self._starts, self._ends, self._blocks
        if not ends or first >= ends[-1]:
            return []  # nothing mapped from *first* on: an append
        if stop is None:
            stop = ends[-1]
        j = bisect_right(starts, first) - 1
        if j < 0:
            j = 0
        elif stop <= ends[j]:
            # The common case: the range lies inside one extent.
            return [(first, blocks[j] + first - starts[j], stop - first)] if first < stop else []
        found = []
        for j in range(j, len(starts)):
            start = starts[j]
            if start >= stop:
                break
            end = ends[j]
            if end > first:
                lo = start if start > first else first
                found.append((lo, blocks[j] + lo - start, (end if end < stop else stop) - lo))
        return found

    def map_run(self, index: int, block: int, count: int) -> None:
        """Map pages ``index..index+count-1`` to blocks ``block..``,
        replacing whatever they mapped to before."""
        if count <= 0:
            raise ValueError("count must be positive")
        starts, ends, blocks = self._starts, self._ends, self._blocks
        stop = index + count
        if starts and index < ends[-1]:
            self.unmap(index, stop)
        j = bisect_left(starts, index)
        joins_right = j < len(starts) and starts[j] == stop and blocks[j] == block + count
        if j and ends[j - 1] == index and blocks[j - 1] + index - starts[j - 1] == block:
            if joins_right:
                ends[j - 1] = ends[j]
                del starts[j], ends[j], blocks[j]
            else:
                ends[j - 1] = stop
        elif joins_right:
            starts[j] = index
            blocks[j] = block
        else:
            starts.insert(j, index)
            ends.insert(j, stop)
            blocks.insert(j, block)
        self._pages += count

    def unmap(self, first: int, stop: int) -> List[Run]:
        """Drop the mappings of pages ``first..stop-1``; returns the
        runs removed, in index order."""
        removed = self.runs(first, stop)
        if not removed:
            return removed
        starts, ends, blocks = self._starts, self._ends, self._blocks
        j = bisect_right(starts, removed[0][0]) - 1
        k = bisect_left(starts, stop, j)
        # Extents j..k-1 overlap the range; keep what sticks out of it.
        kept = []
        if starts[j] < first:
            kept.append((starts[j], first, blocks[j]))
        if ends[k - 1] > stop:
            kept.append((stop, ends[k - 1], blocks[k - 1] + stop - starts[k - 1]))
        starts[j:k] = [start for start, _, _ in kept]
        ends[j:k] = [end for _, end, _ in kept]
        blocks[j:k] = [block for _, _, block in kept]
        self._pages -= sum(count for _, _, count in removed)
        return removed


class Inode:
    """A file (or directory): size, block map, and a metadata block.

    The block map stores the on-disk block for each page index; an index
    with dirty data but no entry is a *delayed allocation* — its
    location is decided only at writeback time (paper §2.3.1).
    """

    _ids = itertools.count(1)

    def __init__(self, path: str, is_dir: bool = False, metadata_block: Optional[int] = None):
        self.id = next(Inode._ids)
        self.path = path
        self.is_dir = is_dir
        self.size = 0
        #: page index -> disk block (absent = unallocated / sparse).
        self.block_map = BlockMap()
        #: Synthetic on-disk location of this inode's metadata
        #: (inode table entry + index blocks), for checkpoint writes.
        self.metadata_block = metadata_block
        self.nlink = 1

    @property
    def size_pages(self) -> int:
        return (self.size + PAGE_SIZE - 1) // PAGE_SIZE

    def __repr__(self) -> str:
        kind = "dir" if self.is_dir else "file"
        return f"<Inode #{self.id} {kind} {self.path!r} {self.size}B>"
