"""The VFS layer: per-task descriptor tables over the filesystem.

This is the bookkeeping half of the syscall layer, extracted from the
``OS`` facade: path resolution, per-task file-descriptor tables with a
configurable ceiling, ref-counted open-file descriptions, and POSIX
deferred free (an unlinked inode keeps its pages and blocks until the
last live handle closes).

Everything here is *pure Python* — no simulated cost, no events on the
simulation clock.  Costed entry points stay on :class:`~repro.syscall.os.OS`
(which charges CPU and fires scheduler hooks, then delegates here), so
the refactor is invisible to existing experiments: the depth-1 golden
hash does not move.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.fs.inode import Inode
from repro.vfs import path as vpath
from repro.vfs.handle import OpenFile


class VFS:
    """Descriptor tables and namespace queries for one machine."""

    #: Per-task descriptor ceiling.  Deliberately generous: legacy
    #: workloads (e.g. the fig17 metadata churner) open thousands of
    #: files without ever closing them; tests shrink this to exercise
    #: EMFILE.
    DEFAULT_MAX_FDS = 32768

    def __init__(self, os, max_fds: int = DEFAULT_MAX_FDS):
        self.os = os
        self.fs = os.fs
        self.max_fds = max_fds
        #: pid -> fd -> OpenFile
        self._tables: Dict[int, Dict[int, OpenFile]] = {}
        self._next_fd: Dict[int, int] = {}
        #: inode id -> live descriptions (deferred-free refcount).
        self._live: Dict[int, int] = {}
        #: Unlinked-but-open inodes awaiting their last close.
        self._orphans: Dict[int, Inode] = {}

    # -- namespace queries (no simulated cost) --------------------------------

    def resolve(self, path: str) -> Inode:
        """The inode at *path*; raises ``FileNotFoundError``."""
        inode = self.fs.lookup(vpath.normalize(path))
        if inode is None:
            raise FileNotFoundError(path)
        return inode

    def exists(self, path: str) -> bool:
        return self.fs.lookup(vpath.normalize(path)) is not None

    def isdir(self, path: str) -> bool:
        inode = self.fs.lookup(vpath.normalize(path))
        return inode is not None and inode.is_dir

    def isfile(self, path: str) -> bool:
        inode = self.fs.lookup(vpath.normalize(path))
        return inode is not None and not inode.is_dir

    def info(self, path: str) -> Dict:
        """fsspec-shaped metadata: ``{"name", "size", "type"}``."""
        inode = self.resolve(path)
        return self._info_of(inode)

    @staticmethod
    def _info_of(inode: Inode) -> Dict:
        return {
            "name": inode.path,
            "size": 0 if inode.is_dir else inode.size,
            "type": "directory" if inode.is_dir else "file",
        }

    def ls(self, path: str, detail: bool = False) -> List:
        """Direct children of directory *path*, sorted by name.

        Listing a file returns that file alone (fsspec convention).
        """
        norm = vpath.normalize(path)
        inode = self.resolve(norm)
        if not inode.is_dir:
            return [self._info_of(inode)] if detail else [norm]
        children = self.fs.children(norm)
        if not detail:
            return children
        return [self._info_of(self.fs.lookup(child)) for child in children]

    # -- descriptor tables ----------------------------------------------------

    def open_count(self, task) -> int:
        return len(self._tables.get(task.pid, ()))

    def handles_of(self, task) -> List[OpenFile]:
        return list(self._tables.get(task.pid, {}).values())

    def live_handles(self, inode_id: int) -> int:
        """Live open-file descriptions referencing *inode_id*."""
        return self._live.get(inode_id, 0)

    def register(self, task, inode: Inode, mode: str = "r+",
                 causes=None, readahead: int = 0) -> OpenFile:
        """Allocate a descriptor for *inode* in *task*'s table."""
        table = self._tables.setdefault(task.pid, {})
        if len(table) >= self.max_fds:
            raise OSError(
                f"EMFILE: descriptor table full for {task.name} "
                f"({self.max_fds} fds)"
            )
        fd = self._next_fd.get(task.pid, 3)  # 0-2 reserved, as tradition demands
        self._next_fd[task.pid] = fd + 1
        handle = OpenFile(
            self.os, task, inode, fd=fd, mode=mode,
            causes=causes, readahead=readahead,
        )
        table[fd] = handle
        self._live[inode.id] = self._live.get(inode.id, 0) + 1
        return handle

    def dup(self, handle: OpenFile) -> int:
        """A new descriptor sharing *handle*'s open-file description."""
        if handle.closed:
            raise OSError("EBADF: dup of closed file")
        table = self._tables.setdefault(handle.task.pid, {})
        if len(table) >= self.max_fds:
            raise OSError(
                f"EMFILE: descriptor table full for {handle.task.name} "
                f"({self.max_fds} fds)"
            )
        fd = self._next_fd.get(handle.task.pid, 3)
        self._next_fd[handle.task.pid] = fd + 1
        table[fd] = handle
        handle.refs += 1
        self._live[handle.inode.id] = self._live.get(handle.inode.id, 0) + 1
        return fd

    def release(self, handle: OpenFile, fd: Optional[int] = None) -> bool:
        """Drop one descriptor of *handle*; closing twice is ``EBADF``.

        Returns True when this was the last reference to an unlinked
        inode and its resources (pages, blocks) were freed — the POSIX
        deferred-free path.
        """
        if handle.closed:
            raise OSError("EBADF: file already closed")
        table = self._tables.get(handle.task.pid, {})
        target = fd if fd is not None else handle.fd
        if table.get(target) is not handle:
            raise OSError(f"EBADF: fd {target} not open")
        del table[target]
        handle.refs -= 1
        if handle.refs <= 0:
            handle.closed = True
        inode = handle.inode
        remaining = self._live.get(inode.id, 0) - 1
        released = False
        if remaining <= 0:
            self._live.pop(inode.id, None)
            orphan = self._orphans.pop(inode.id, None)
            if orphan is not None:
                self.fs.release_inode(orphan)
                released = True
        else:
            self._live[inode.id] = remaining
        return released

    # -- namespace mutation ---------------------------------------------------

    def unlink(self, task, path: str) -> None:
        """Remove *path* from the namespace.

        The name disappears immediately; with live handles the inode's
        pages and disk blocks survive until the last close (POSIX
        deferred free), so readers holding the file open keep working.
        """
        norm = vpath.normalize(path)
        inode = self.fs.lookup(norm)
        if inode is not None and inode.is_dir:
            if self.fs.children(norm):
                raise OSError(f"ENOTEMPTY: directory not empty: {path}")
            raise IsADirectoryError(path)
        live = inode is not None and self.live_handles(inode.id) > 0
        removed = self.fs.unlink(task, norm, release=not live)
        if live:
            self._orphans[removed.id] = removed

    def rmdir(self, task, path: str) -> None:
        """Remove an *empty* directory from the namespace."""
        norm = vpath.normalize(path)
        if norm == vpath.ROOT:
            raise OSError("EBUSY: cannot remove the root directory")
        inode = self.resolve(norm)
        if not inode.is_dir:
            raise NotADirectoryError(path)
        if self.fs.children(norm):
            raise OSError(f"ENOTEMPTY: directory not empty: {path}")
        self.fs.unlink(task, norm)

    def rename(self, task, old: str, new: str) -> Inode:
        """Move *old* to *new* (directories carry their subtree)."""
        return self.fs.rename(task, vpath.normalize(old), vpath.normalize(new))

    def missing_parents(self, path: str) -> List[str]:
        """Ancestor directories of *path* that do not exist yet, topmost
        first — the ``mkdir -p`` work list."""
        missing = []
        for ancestor in vpath.ancestors(vpath.normalize(path)):
            inode = self.fs.lookup(ancestor)
            if inode is None:
                missing.append(ancestor)
            elif not inode.is_dir:
                raise NotADirectoryError(ancestor)
        return missing
