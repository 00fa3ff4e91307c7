"""Ref-counted open-file objects: cursor, flags, causes, read-ahead.

An :class:`OpenFile` is one *open file description* in the POSIX sense:
an inode plus a cursor plus open flags, shared by every descriptor that
``dup`` produced from the same ``open``.  It avoids two traps:

- ``seek``/``pread``/``pwrite`` reject negative offsets with
  ``ValueError`` instead of silently producing nonsense;
- ``append`` (and every write on an ``a``-mode handle) advances the
  cursor to the new end of file, so a plain ``write`` issued afterwards
  continues *after* the appended bytes instead of overwriting them.

Cursor semantics, explicitly: ``read``/``write`` start at ``pos`` and
advance it by the bytes transferred; ``pread``/``pwrite`` never touch
``pos``; in append mode every write targets end-of-file regardless of
``pos`` and leaves ``pos`` at the new end.

Two optional per-handle behaviours, both off by default so a plain
handle charges its caller and reads exactly what it is asked to:

- ``causes``: a :class:`~repro.core.tags.CauseSet` charged for every
  byte this handle moves (the tenant attribution hook frontends use) —
  installed as a proxy tag around each operation;
- ``readahead``: a byte count; cursor reads are widened to at least
  this size, prefetching into the page cache on the handle's own dime.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class ModeFlags(NamedTuple):
    """Decoded open-mode flags."""

    readable: bool
    writable: bool
    append: bool
    truncate: bool
    create: bool
    exclusive: bool


#: Python-style mode strings -> flags ("b" is stripped first; the
#: simulator is byte-agnostic, so text and binary modes coincide).
_MODES = {
    "r": ModeFlags(True, False, False, False, False, False),
    "r+": ModeFlags(True, True, False, False, False, False),
    "w": ModeFlags(False, True, False, True, True, False),
    "w+": ModeFlags(True, True, False, True, True, False),
    "a": ModeFlags(False, True, True, False, True, False),
    "a+": ModeFlags(True, True, True, False, True, False),
    "x": ModeFlags(False, True, False, False, True, True),
    "x+": ModeFlags(True, True, False, False, True, True),
}


def parse_mode(mode: str) -> ModeFlags:
    key = mode.replace("b", "").replace("t", "")
    try:
        return _MODES[key]
    except KeyError:
        raise ValueError(f"invalid mode: {mode!r}") from None


class OpenFile:
    """An open file description: inode + cursor + flags + attribution."""

    def __init__(
        self,
        os,
        task,
        inode,
        fd: int = -1,
        mode: str = "r+",
        causes=None,
        readahead: int = 0,
    ):
        self.os = os
        self.task = task
        self.inode = inode
        self.fd = fd
        self.mode = mode
        self.flags = parse_mode(mode)
        self.causes = causes
        self.readahead = readahead
        self.pos = 0
        #: Descriptors sharing this description (``dup`` bumps it).
        self.refs = 1
        self.closed = False

    # -- guards ---------------------------------------------------------------

    def _check_open(self) -> None:
        if self.closed:
            raise ValueError("I/O operation on closed file")

    def _check_readable(self) -> None:
        self._check_open()
        if not self.flags.readable:
            raise ValueError(f"file not open for reading (mode {self.mode!r})")

    def _check_writable(self) -> None:
        self._check_open()
        if not self.flags.writable:
            raise ValueError(f"file not open for writing (mode {self.mode!r})")

    def _tagged(self, gen):
        """*gen* run with this handle's causes installed as a proxy tag;
        *gen* itself, with no wrapping frame, when the handle has none."""
        if self.causes is None:
            return gen
        return self._with_causes(gen)

    def _with_causes(self, gen):
        tags = self.os.tags
        if tags.is_proxy(self.task):
            return (yield from gen)
        tags.set_proxy(self.task, self.causes)
        try:
            return (yield from gen)
        finally:
            tags.clear_proxy(self.task)

    # -- cursor I/O -----------------------------------------------------------

    def read(self, nbytes: int):
        """Generator: read *nbytes* at the cursor, advancing it."""
        self._check_readable()
        if nbytes < 0:
            raise ValueError(f"negative read length: {nbytes}")
        want = nbytes
        if self.readahead:
            want = max(nbytes, self.readahead)
        n = yield from self._tagged(
            self.os.read(self.task, self.inode, self.pos, want)
        )
        got = min(n, nbytes)
        self.pos += got
        return got

    def write(self, nbytes: int):
        """Generator: write *nbytes* at the cursor, advancing it.

        In append mode the write targets end-of-file regardless of the
        cursor, and the cursor lands at the new end.
        """
        self._check_writable()
        if nbytes < 0:
            raise ValueError(f"negative write length: {nbytes}")
        offset = self.inode.size if self.flags.append else self.pos
        n = yield from self._tagged(
            self.os.write(self.task, self.inode, offset, nbytes)
        )
        self.pos = offset + n
        return n

    def append(self, nbytes: int):
        """Generator: write *nbytes* at end of file.

        The cursor advances to the new end of file, so a subsequent
        ``write`` continues after the appended bytes instead of
        overwriting them.
        """
        self._check_writable()
        if nbytes < 0:
            raise ValueError(f"negative write length: {nbytes}")
        offset = self.inode.size
        n = yield from self._tagged(
            self.os.write(self.task, self.inode, offset, nbytes)
        )
        self.pos = offset + n
        return n

    # -- positional I/O (cursor untouched) ------------------------------------

    # pread, pwrite and fsync check their arguments when called and
    # return the syscall's generator itself: no frame of their own.
    # The checks and _tagged are inlined (the guards above raise the
    # errors), since a cached pread or pwrite is a memory-speed call.

    def pread(self, offset: int, nbytes: int, direct: bool = False):
        if self.closed or not self.flags.readable:
            self._check_readable()
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        if nbytes < 0:
            raise ValueError(f"negative read length: {nbytes}")
        gen = self.os.read(self.task, self.inode, offset, nbytes, direct=direct)
        return gen if self.causes is None else self._with_causes(gen)

    def pwrite(self, offset: int, nbytes: int, direct: bool = False):
        if self.closed or not self.flags.writable:
            self._check_writable()
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        if nbytes < 0:
            raise ValueError(f"negative write length: {nbytes}")
        gen = self.os.write(self.task, self.inode, offset, nbytes, direct=direct)
        return gen if self.causes is None else self._with_causes(gen)

    # -- metadata / durability -------------------------------------------------

    def fsync(self):
        self._check_open()
        return self._tagged(self.os.fsync(self.task, self.inode))

    def truncate(self, new_size: int):
        self._check_writable()
        yield from self._tagged(self.os.truncate(self.task, self.inode, new_size))
        if self.pos > new_size:
            self.pos = new_size

    def close(self):
        """Generator: release this descriptor (see :meth:`OS.close`)."""
        return (yield from self.os.close(self))

    # -- cursor ---------------------------------------------------------------

    def seek(self, offset: int, whence: int = 0) -> int:
        """Reposition the cursor; returns the new position.

        whence: 0 = absolute, 1 = relative, 2 = from end of file.
        Negative resulting positions raise ``ValueError``.
        """
        self._check_open()
        if whence == 0:
            target = offset
        elif whence == 1:
            target = self.pos + offset
        elif whence == 2:
            target = self.inode.size + offset
        else:
            raise ValueError(f"invalid whence: {whence}")
        if target < 0:
            raise ValueError(f"negative seek position: {target}")
        self.pos = target
        return self.pos

    def tell(self) -> int:
        return self.pos

    @property
    def size(self) -> int:
        return self.inode.size

    @property
    def path(self) -> Optional[str]:
        return self.inode.path

    # -- cache control --------------------------------------------------------

    def drop_cache(self) -> None:
        """Evict this file's cached pages (posix_fadvise DONTNEED)."""
        self.os.cache.free_file(self.inode.id)

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"pos={self.pos}"
        return (
            f"<OpenFile fd={self.fd} {self.inode.path!r} "
            f"mode={self.mode!r} {state}>"
        )
