"""The filesystem core: VFS operations over cache, journal, and disk.

All potentially-blocking operations (`read`, `write`, `fsync`) are
generators driven by the simulation; pure-memory operations are plain
methods.  The class is file-system-agnostic; :class:`~repro.fs.ext4.Ext4`
and :class:`~repro.fs.xfs.XFS` configure journaling mode and split-tag
integration.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.block.request import READ, WRITE, BlockRequest
from repro.faults.errors import EIO
from repro.fs.alloc import Allocator
from repro.fs.inode import Inode, Run
from repro.fs.journal import Journal
from repro.sim.events import AllOf
from repro.units import PAGE_SIZE


def raise_on_failed(events) -> None:
    """Raise :class:`EIO` if any completed block request in *events* failed.

    Every ``done`` event succeeds with its request (even on failure);
    synchronous paths — reads, O_DIRECT, fsync — call this after
    waiting so persistent device errors surface at the syscall layer
    instead of being silently absorbed.
    """
    for event in events:
        request = event.value
        if getattr(request, "failed", False):
            raise EIO(request.error or request)


def _block_runs(runs: List[Run]) -> List[List[Run]]:
    """Group ``(index, disk block, count)`` runs by consecutive blocks.

    Sorts *runs* by block in place, then puts each run in the group of
    the one before it when its blocks continue that run's, even where
    the page indices jump: one block request per stretch of
    consecutive blocks, as a page-by-page split would make.
    """
    if len(runs) == 1:
        return [runs]
    runs.sort(key=itemgetter(1))
    groups = []
    start = 0
    for i in range(1, len(runs)):
        _, block, count = runs[i - 1]
        if runs[i][1] != block + count:
            groups.append(runs[start:i])
            start = i
    groups.append(runs[start:])
    return groups


if TYPE_CHECKING:  # pragma: no cover
    from repro.block.queue import BlockQueue
    from repro.cache.cache import PageCache
    from repro.cache.page import DirtyRun
    from repro.core.tags import TagManager
    from repro.proc import ProcessTable, Task
    from repro.sim.core import Environment


class FileSystem:
    """A journaling filesystem instance mounted on one block queue."""

    name = "genericfs"
    #: Full split integration: proxies (journal, writeback doing delayed
    #: allocation) are tagged so metadata I/O maps to true causes.
    full_integration = True
    #: Journal flavour (physical jbd2-style by default).
    journal_class = Journal

    def __init__(
        self,
        env: "Environment",
        cache: "PageCache",
        block_queue: "BlockQueue",
        tags: "TagManager",
        process_table: "ProcessTable",
        journal_blocks: int = 32768,
        metadata_blocks: int = 8192,
        commit_interval: float = 5.0,
        checkpoint_delay: float = 30.0,
    ):
        self.env = env
        self.cache = cache
        self.block_queue = block_queue
        #: The stack event bus, shared with the block layer.
        self.bus = block_queue.bus
        self.tags = tags
        self.process_table = process_table

        capacity = block_queue.device.capacity_blocks
        needed = metadata_blocks + journal_blocks + 1
        if capacity <= needed:
            raise ValueError(f"device too small: {capacity} blocks, need > {needed}")

        #: Disk layout: [metadata | journal | data].
        self._metadata_region = Allocator(0, metadata_blocks)
        self.journal = self.journal_class(
            env,
            self,
            area_start=metadata_blocks,
            area_blocks=journal_blocks,
            commit_interval=commit_interval,
            checkpoint_delay=checkpoint_delay,
        )
        self.allocator = Allocator(metadata_blocks + journal_blocks, capacity - metadata_blocks - journal_blocks)

        self._inodes: Dict[int, Inode] = {}
        self._namespace: Dict[str, Inode] = {}
        self.root = self._new_inode("/", is_dir=True)
        #: In-flight page-write completion events per inode (ordered-mode
        #: commits must wait for these, not only for still-dirty pages).
        self._inflight: Dict[int, Set] = {}
        #: Readahead: pages prefetched beyond a sequential read (0 = off).
        self.readahead_pages = 32
        self._last_read_end: Dict[int, int] = {}
        #: The writeback daemon is attached after construction.
        self.writeback = None

        # Counters
        self.reads = 0
        self.writes = 0
        self.fsyncs = 0
        self.creates = 0

    # -- namespace ------------------------------------------------------------

    def _new_inode(self, path: str, is_dir: bool) -> Inode:
        meta_block = self._metadata_region.allocate(0, 1)
        inode = Inode(path, is_dir=is_dir, metadata_block=meta_block)
        self._inodes[inode.id] = inode
        self._namespace[path] = inode
        return inode

    def inode_by_id(self, inode_id: int) -> Optional[Inode]:
        return self._inodes.get(inode_id)

    def lookup(self, path: str) -> Optional[Inode]:
        return self._namespace.get(path)

    def _parent_dir(self, path: str) -> Inode:
        parent_path = path.rsplit("/", 1)[0] or "/"
        parent = self._namespace.get(parent_path)
        if parent is None or not parent.is_dir:
            raise FileNotFoundError(f"no such directory: {parent_path}")
        return parent

    def create(self, task: "Task", path: str, is_dir: bool = False) -> Inode:
        """creat/mkdir: new inode + parent directory metadata update."""
        if path in self._namespace:
            raise FileExistsError(path)
        parent = self._parent_dir(path)
        inode = self._new_inode(path, is_dir=is_dir)
        self.creates += 1
        # Both the new inode and the parent directory join the journal.
        self.journal.add_metadata(task, inode.metadata_block)
        self.journal.add_metadata(task, parent.metadata_block)
        return inode

    def children(self, dirpath: str) -> List[str]:
        """Direct children of *dirpath* in the flat namespace, sorted.

        Derived by scanning the namespace on demand — there is no
        second index to fall out of sync with ``create``/``unlink``.
        """
        prefix = "/" if dirpath == "/" else dirpath + "/"
        return sorted(
            path
            for path in self._namespace
            if path != dirpath
            and path.startswith(prefix)
            and "/" not in path[len(prefix):]
        )

    def unlink(self, task: "Task", path: str, release: bool = True) -> Inode:
        """Remove *path* from the namespace; returns the inode.

        With ``release`` (the default) the file's pages are freed (the
        buffer-free hook fires) and its disk blocks returned.  The VFS
        passes ``release=False`` while live handles reference the inode
        — POSIX deferred free — and calls :meth:`release_inode` itself
        on the last close.
        """
        inode = self._namespace.pop(path, None)
        if inode is None:
            raise FileNotFoundError(path)
        if release:
            self.release_inode(inode)
        inode.nlink = 0
        parent = self._parent_dir(path)
        self.journal.add_metadata(task, parent.metadata_block)
        self.journal.add_metadata(task, inode.metadata_block)
        return inode

    def release_inode(self, inode: Inode) -> None:
        """Free an inode's cached pages and disk blocks (last unref)."""
        self.cache.free_file(inode.id)
        for _, block, count in inode.block_map.runs():
            self.allocator.free(block, count)
        inode.block_map.clear()
        self._inodes.pop(inode.id, None)
        self._last_read_end.pop(inode.id, None)

    def rename(self, task: "Task", old_path: str, new_path: str) -> Inode:
        """Move *old_path* to *new_path* (directories carry subtrees).

        The target must not exist and its parent directory must; both
        parents and the moved inode join the running transaction, like
        a journaled directory-entry update.
        """
        inode = self._namespace.get(old_path)
        if inode is None:
            raise FileNotFoundError(old_path)
        if new_path in self._namespace:
            raise FileExistsError(new_path)
        if new_path == old_path or (
            inode.is_dir and new_path.startswith(old_path + "/")
        ):
            raise ValueError(f"cannot move {old_path!r} into itself")
        old_parent = self._parent_dir(old_path)
        new_parent = self._parent_dir(new_path)
        moved = [old_path]
        if inode.is_dir:
            prefix = old_path + "/"
            moved.extend(p for p in self._namespace if p.startswith(prefix))
        for path in moved:
            node = self._namespace.pop(path)
            rekeyed = new_path + path[len(old_path):]
            node.path = rekeyed
            self._namespace[rekeyed] = node
        self.journal.add_metadata(task, old_parent.metadata_block)
        self.journal.add_metadata(task, new_parent.metadata_block)
        self.journal.add_metadata(task, inode.metadata_block)
        return inode

    def truncate(self, task: "Task", inode: Inode, new_size: int) -> None:
        """Shrink (or sparsely extend) a file.

        Shrinking frees the cached pages beyond the new end — dirty
        ones fire the buffer-free hook (the work disappeared before
        writeback) — and returns their disk blocks.
        """
        if new_size < 0:
            raise ValueError("negative size")
        old_pages = inode.size_pages
        inode.size = new_size
        new_pages = inode.size_pages
        self.cache.free_range(inode.id, new_pages, old_pages)
        for _, block, count in inode.block_map.unmap(new_pages, old_pages):
            self.allocator.free(block, count)
        self.journal.add_metadata(task, inode.metadata_block)

    # -- data path --------------------------------------------------------------

    def write(self, task: "Task", inode: Inode, offset: int, nbytes: int):
        """Generator: buffered write (dirty pages, journal join, throttle)."""
        if nbytes <= 0:
            return 0
        self.writes += 1
        causes = self.tags.current_causes(task)
        # A page the block map lacks keeps delayed allocation: its
        # location stays unknown and the allocation joins the journal
        # at writeback time.
        self.cache.mark_dirty_range(
            inode.id, offset // PAGE_SIZE, (offset + nbytes - 1) // PAGE_SIZE + 1,
            inode.block_map, task, causes,
        )
        if offset + nbytes > inode.size:
            inode.size = offset + nbytes
        # mtime (and size, for appends) updates join the running txn.
        self.journal.add_metadata(task, inode.metadata_block, causes=causes)
        writeback = self.writeback
        if writeback is not None and writeback.enabled and writeback.over_limit():
            yield from writeback.balance_dirty_pages(task)
        return nbytes

    def read(self, task: "Task", inode: Inode, offset: int, nbytes: int):
        """Generator: read through the cache; misses hit the disk."""
        if nbytes <= 0 or offset >= inode.size:
            return 0
        self.reads += 1
        nbytes = min(nbytes, inode.size - offset)
        first_page = offset // PAGE_SIZE
        last_page = (offset + nbytes - 1) // PAGE_SIZE

        sequential = self._last_read_end.get(inode.id) == first_page
        self._last_read_end[inode.id] = last_page + 1

        cache = self.cache
        missing = cache.lookup_range(inode.id, first_page, last_page + 1, inode.block_map)

        # Readahead: when a sequential read goes to disk anyway, fetch
        # a window beyond it (Linux-style sequential detection).
        if missing and sequential and self.readahead_pages:
            max_page = max(inode.size_pages - 1, last_page)
            missing += cache.lookup_range(
                inode.id, last_page + 1, min(last_page + self.readahead_pages, max_page) + 1,
                inode.block_map, readahead=True,
            )

        if missing:
            events = self._read_blocks(task, inode, missing)
            if events:
                yield AllOf(self.env, events)
                raise_on_failed(events)
        return nbytes

    def _read_blocks(self, task: "Task", inode: Inode, missing: List[Run], cached: bool = True):
        """Submit one block read per stretch of consecutive missing blocks.

        With *cached*, each request's pages join the page cache, in
        block order, as soon as it is submitted.
        """
        causes = self.tags.current_causes(task)
        events = []
        for group in _block_runs(missing):
            block = group[0][1]
            _, last_block, last_count = group[-1]
            request = BlockRequest(
                READ,
                block=block,
                nblocks=last_block + last_count - block,
                submitter=task,
                causes=causes,
                sync=True,
            )
            events.append(self.block_queue.submit(request))
            if cached:
                self.cache.insert_clean_run(inode.id, group)
        return events

    # -- direct I/O (O_DIRECT) -------------------------------------------------------

    def read_direct(self, task: "Task", inode: Inode, offset: int, nbytes: int):
        """Generator: read bypassing the page cache (O_DIRECT).

        Used by hypervisors (`cache=none`): the I/O goes straight to
        the block layer, so the host cache is not polluted and the
        block scheduler sees every request.
        """
        if nbytes <= 0 or offset >= inode.size:
            return 0
        self.reads += 1
        nbytes = min(nbytes, inode.size - offset)
        first_page = offset // PAGE_SIZE
        last_page = (offset + nbytes - 1) // PAGE_SIZE
        missing = inode.block_map.runs(first_page, last_page + 1)
        if missing:
            events = self._read_blocks(task, inode, missing, cached=False)
            if events:
                yield AllOf(self.env, events)
                raise_on_failed(events)
        return nbytes

    def write_direct(self, task: "Task", inode: Inode, offset: int, nbytes: int):
        """Generator: synchronous write bypassing the cache (O_DIRECT).

        Unallocated ranges are allocated immediately (no delayed
        allocation without a cache), and the call returns only when the
        device has the data.  A dirty page still waiting for delayed
        allocation takes the block allocated here, so its writeback
        goes there instead of allocating (and leaking) a second one.
        """
        if nbytes <= 0:
            return 0
        self.writes += 1
        first_page = offset // PAGE_SIZE
        last_page = (offset + nbytes - 1) // PAGE_SIZE
        causes = self.tags.current_causes(task)
        runs: List[List[int]] = []
        block_map = inode.block_map
        for index in range(first_page, last_page + 1):
            block = block_map.get(index)
            if block is None:
                block = self.allocator.allocate(inode.id, 1)
                block_map[index] = block
                self.cache.assign_block(inode.id, index, block)
                self.journal.add_metadata(task, inode.metadata_block)
            if runs and runs[-1][-1] == block - 1:
                runs[-1].append(block)
            else:
                runs.append([block])
        events = []
        for run in runs:
            request = BlockRequest(
                WRITE, block=run[0], nblocks=len(run), submitter=task,
                causes=causes, sync=True,
            )
            events.append(self.block_queue.submit(request))
        if offset + nbytes > inode.size:
            inode.size = offset + nbytes
        if events:
            yield AllOf(self.env, events)
            raise_on_failed(events)
        return nbytes

    # -- writeback path ------------------------------------------------------------

    def writepages(self, task: "Task", inode: Inode, runs: List["DirtyRun"], sync: bool = False):
        """Flush dirty *runs* of *inode*, given in index order: allocate
        (delayed allocation), tag proxies, and submit block writes.
        Returns completion events.

        Callers: the writeback daemon, fsync, the journal's ordered-data
        step, and schedulers initiating async writeback.
        """
        runs = [run for run in runs if run.dirty and not run.under_writeback]
        if not runs:
            return []

        unallocated = [run for run in runs if run.disk_block is None]
        if unallocated:
            self._allocate_pages(inode, unallocated)

        # One block request per stretch of consecutive disk blocks,
        # tagged with the union of its runs' causes.  A run sits on
        # consecutive blocks; chains of runs that continue each other
        # on disk come out of index order; sorted by block, a chain
        # joins the one before it when its blocks continue that
        # chain's, so each request lists its runs in block order, as
        # sorting every page by block would.
        chains = []
        chain = expected = None
        for run in runs:
            block = run.disk_block
            if block == expected:
                chain.append(run)
            else:
                chain = [run]
                chains.append(chain)
            expected = block + len(run)
        if len(chains) > 1:
            chains.sort(key=lambda chain: chain[0].disk_block)
            merged = [chains[0]]
            for chain in chains[1:]:
                last = merged[-1]
                if chain[0].disk_block == last[-1].disk_block + len(last[-1]):
                    last += chain
                else:
                    merged.append(chain)
            chains = merged
        requests = []
        for chain in chains:
            # A chain's runs mostly share a few set objects: union only
            # where the object changes (a set already merged in adds
            # nothing, so the result is the same object).
            chain_causes = last_causes = chain[0].causes
            for run in chain:
                causes = run.causes
                if causes is not last_causes:
                    last_causes = causes
                    chain_causes = chain_causes | causes
            requests.append((chain, chain_causes))

        proxying = task.kernel and self.full_integration
        if proxying:
            union_causes = requests[0][1]
            for _, chain_causes in requests:
                union_causes = union_causes | chain_causes
            self.tags.set_proxy(task, union_causes)
        try:
            if unallocated:
                # The allocation dirtied block bitmaps and the inode's
                # extent tree: a metadata update that joins the running
                # transaction and puts the inode on the ordered list
                # (its data must precede the commit).
                self.journal.add_metadata(task, inode.metadata_block, ordered_inode=inode.id)
            events = []
            for chain, chain_causes in requests:
                request = BlockRequest(
                    WRITE,
                    block=chain[0].disk_block,
                    nblocks=sum(map(len, chain)),
                    submitter=task,
                    causes=chain_causes,
                    sync=sync,
                    runs=chain,
                )
                for run in chain:
                    run.write_submitted(chain)
                done = self.block_queue.submit(request)
                events.append(done)
                self._track_inflight(inode.id, done)
            return events
        finally:
            if proxying:
                self.tags.clear_proxy(task)

    def _allocate_pages(self, inode: Inode, runs: List["DirtyRun"]) -> None:
        """Delayed allocation at flush time: assign contiguous extents,
        one per stretch of consecutive page indices (*runs* are in index
        order)."""
        stretches = []
        stretch = expected = None
        for run in runs:
            if run.start == expected:
                stretch.append(run)
            else:
                stretch = [run]
                stretches.append(stretch)
            expected = run.stop
        allocate, map_run = self.allocator.allocate, inode.block_map.map_run
        for stretch in stretches:
            count = sum(map(len, stretch))
            block = allocate(inode.id, count)
            map_run(stretch[0].start, block, count)
            for run in stretch:
                run.disk_block = block
                block += len(run)

    def _track_inflight(self, inode_id: int, done) -> None:
        pending = self._inflight.setdefault(inode_id, set())
        pending.add(done)

        def _clear(event, pending=pending):
            pending.discard(event)

        done.callbacks.append(_clear)

    def inflight_events(self, inode_id: int) -> List:
        return list(self._inflight.get(inode_id, ()))

    # -- fsync --------------------------------------------------------------------

    def fsync(self, task: "Task", inode: Inode):
        """Generator: make *inode* durable (data flush + journal commit).

        This is where entanglement bites: committing the running
        transaction may require flushing *other* files' ordered data
        first, and only one transaction commits at a time.
        """
        self.fsyncs += 1
        pages = self.cache.dirty_pages_of(inode.id)
        events = self.writepages(task, inode, pages, sync=True)
        events.extend(self.inflight_events(inode.id))
        if events:
            yield AllOf(self.env, events)
            raise_on_failed(events)

        txn = self.journal.transaction_of(inode.id, inode.metadata_block)
        if txn is not None:
            yield from self.journal.ensure_committed(txn)
        return None
