"""The scheduler hook tables (paper Table 2).

Three framework styles coexist on the simulated stack:

- **block-level** (Linux elevator): a plain
  :class:`~repro.block.elevator.BlockScheduler` — sees request
  submitters, cannot see syscalls or the page cache;
- **system-call level** (SCS, Craciunas et al.): syscall entry/return
  hooks only — sees callers, cannot see cache internals or the disk;
- **split-level** (this paper): syscall hooks for writes/fsync/metadata
  calls, memory hooks for buffer-dirty/buffer-free, *and* the block
  hooks, with cause tags flowing through all of them.

Syscall entry hooks may return a generator; the OS drives it, letting
the scheduler put the caller to sleep for as long as its policy wants
(the paper's "sleep in the entry hook" implementation choice).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.block.elevator import BlockScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tags import CauseSet
    from repro.proc import Task

#: Calls exposed at the syscall level.  The split framework schedules
#: writes, fsync, and metadata calls; reads are deliberately *not*
#: scheduled above the cache (block level is preferable; §4.2).  The
#: SCS framework schedules reads too — that is its design.
SYSCALL_HOOKS = ("read", "write", "fsync", "creat", "mkdir", "unlink")

#: The hook inventory of Table 2: name -> (level, origin).
SPLIT_HOOK_TABLE: Dict[str, Any] = {
    "write_entry": ("syscall", "SCS"),
    "write_return": ("syscall", "SCS"),
    "fsync_entry": ("syscall", "new"),
    "fsync_return": ("syscall", "new"),
    "creat_entry": ("syscall", "new"),
    "mkdir_entry": ("syscall", "new"),
    "buffer_dirty": ("memory", "new"),
    "buffer_free": ("memory", "new"),
    "block_add": ("block", "elevator"),
    "block_dispatch": ("block", "elevator"),
    "block_complete": ("block", "elevator"),
}


class SchedulerHooks:
    """Base class for schedulers with above-block hooks."""

    name = "scheduler"
    #: Which framework the scheduler belongs to ("block", "syscall",
    #: "split"); used by the Table 1 capability probes and the OS wiring.
    framework = "split"

    # -- system-call level ---------------------------------------------------

    def syscall_entry(self, task: "Task", call: str, info: Dict[str, Any]):
        """Called before the body of a syscall runs.

        Return None to let the call proceed immediately, or a generator
        that the calling task will be driven through (yielding events
        to sleep on) before the call body executes.
        """
        return None

    def syscall_return(self, task: "Task", call: str, info: Dict[str, Any]) -> None:
        """Called after the syscall body completes."""

    # -- memory level -----------------------------------------------------------

    def on_buffers_dirty(
        self, inode_id: int, first: int, stop: int, causes: "CauseSet", old_causes: "CauseSet"
    ) -> None:
        """Buffers were dirtied (or dirty buffers re-modified).

        Pages ``first..stop-1`` of file *inode_id* all carried
        *old_causes* before the write (empty for pages just born dirty);
        each now carries *causes*.  One call per stretch, not per page:
        a policy that ignores overwrites returns at once for all of
        them.  The page cache calls it directly, and only if the
        scheduler's class overrides it (the OS hands the cache the
        bound method when it assembles the stack).
        """

    def on_buffer_free(self, inode_id: int, first: int, stop: int) -> None:
        """Dirty buffers ``first..stop-1`` of a file were deleted before
        writeback (called by the page cache only if overridden)."""

    # -- block level --------------------------------------------------------------

    def make_elevator(self) -> BlockScheduler:
        """The block-level component to install on the request queue."""
        from repro.schedulers.noop import Noop

        return Noop()

    # -- lifecycle ----------------------------------------------------------------

    def attach_stack(self, os) -> None:
        """Called once the OS stack is assembled (access to cache, etc.)."""
        self.os = os


class SplitScheduler(SchedulerHooks, BlockScheduler):
    """A scheduler using hooks at all three levels (it *is* the elevator)."""

    framework = "split"

    def __init__(self):
        BlockScheduler.__init__(self)

    def make_elevator(self) -> BlockScheduler:
        return self
