"""`repro.vfs`: the VFS layer and the `reprofs` application frontend.

The package splits the stack's top edge in two:

- :mod:`repro.vfs.vfs` — the kernel-side half: a hierarchical path
  namespace over the filesystem, per-task descriptor tables, and
  ref-counted :class:`~repro.vfs.handle.OpenFile` descriptions with
  POSIX cursor semantics, per-handle cause tags, and optional buffered
  read-ahead.  The :class:`~repro.syscall.os.OS` facade charges CPU and
  fires scheduler hooks, then delegates its bookkeeping here.

- :mod:`repro.vfs.reprofs` — the application-side half: an
  fsspec-shaped synchronous filesystem (``repro://``) that bridges
  ordinary file-API code onto the generator-driven simulation through a
  driver pump, making any file-speaking application a schedulable,
  cause-tagged tenant.
"""

from repro.vfs.handle import OpenFile, parse_mode
from repro.vfs.path import (
    ancestors,
    basename,
    components,
    is_within,
    join,
    normalize,
    parent_of,
)
from repro.vfs.vfs import VFS

__all__ = [
    "VFS",
    "OpenFile",
    "ancestors",
    "basename",
    "components",
    "is_within",
    "join",
    "normalize",
    "parent_of",
    "parse_mode",
]
