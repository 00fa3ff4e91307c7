"""The OS facade: assembles the stack and exposes the syscall API.

Workloads and applications interact with storage exclusively through
this class; every call is a generator driven by the simulation
(``yield from os.read(...)``).  Syscall entry/return hooks fire here —
this is the "system-call level" of the split framework.

Error semantics: when the device fails a request permanently (the block
layer exhausted its retries — see :mod:`repro.faults`), synchronous
calls (``read``, ``fsync``, direct I/O) raise
:class:`~repro.faults.errors.EIO`.  Buffered writes succeed into the
page cache; a later flush failure re-dirties the pages and surfaces at
the next ``fsync``, exactly like Linux.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.block.elevator import BlockScheduler
from repro.block.queue import BlockQueue
from repro.cache.cache import PageCache
from repro.cache.writeback import WritebackConfig, WritebackDaemon
from repro.core.costmodel import DiskCostModel, MemoryCostModel
from repro.core.hooks import SchedulerHooks
from repro.core.tags import TagManager
from repro.devices.hdd import HDD
from repro.fs.ext4 import Ext4
from repro.fs.inode import Inode
from repro.obs.bus import PageDirtied, PageFreed, StackBus, SyscallEnter, SyscallReturn
from repro.proc import ProcessTable, Task
from repro.sim.events import Timeout
from repro.syscall.cpu import CPU
from repro.units import GB
from repro.vfs.handle import OpenFile, parse_mode
from repro.vfs.vfs import VFS

if TYPE_CHECKING:  # pragma: no cover
    from repro.devices.base import Device
    from repro.sim.core import Environment

__all__ = ["OS", "OpenFile"]


class OS:
    """One simulated machine: CPU, memory, storage stack, scheduler."""

    def __init__(
        self,
        env: "Environment",
        device: Optional["Device"] = None,
        fs_class=Ext4,
        scheduler=None,
        memory_bytes: int = 16 * GB,
        cores: int = 8,
        writeback_config: Optional[WritebackConfig] = None,
        writeback_enabled: bool = True,
        fs_kwargs: Optional[Dict[str, Any]] = None,
        queue_depth: int = 1,
        hedge: bool = False,
        health: Any = None,
    ):
        self.env = env
        #: One stack event bus shared by every layer of this machine.
        self.bus = StackBus()
        self._sub_sys_enter = self.bus.listeners(SyscallEnter)
        self._sub_sys_return = self.bus.listeners(SyscallReturn)
        self.tags = TagManager()
        self.process_table = ProcessTable()
        self.cpu = CPU(env, cores)
        self.device = device if device is not None else HDD()

        if scheduler is None:
            from repro.schedulers.noop import Noop

            scheduler = Noop()
        elif isinstance(scheduler, str):
            from repro.schedulers import make_scheduler

            scheduler = make_scheduler(scheduler)

        if isinstance(scheduler, SchedulerHooks):
            self.scheduler: Optional[SchedulerHooks] = scheduler
            elevator = scheduler.make_elevator()
        elif isinstance(scheduler, BlockScheduler):
            self.scheduler = None
            elevator = scheduler
        else:
            raise TypeError(f"unsupported scheduler {scheduler!r}")
        self.elevator = elevator

        # Health monitoring: explicit True/config attaches a monitor;
        # None (auto) attaches one exactly when something will consume
        # it — hedged dispatch or an injected fault plan — so a plain
        # stack publishes no health events and stays byte-identical (and
        # never imports the monitor).
        if health is None:
            health = hedge or hasattr(self.device, "injector")
        monitor = None
        if health is not False:
            from repro.health import HealthConfig, HealthMonitor, resolve_health

            health = resolve_health(health)
            monitor = HealthMonitor(
                env, self.device.name, self.bus,
                health if isinstance(health, HealthConfig) else None,
            )
        self.health = monitor

        self.block_queue = BlockQueue(
            env, self.device, elevator, self.process_table, bus=self.bus,
            queue_depth=queue_depth, hedge=hedge, health=monitor,
        )
        self.cache = PageCache(env, self.tags, memory_bytes, bus=self.bus)
        self.fs = fs_class(
            env, self.cache, self.block_queue, self.tags, self.process_table,
            **(fs_kwargs or {}),
        )
        self.writeback = WritebackDaemon(
            env, self.cache, self.fs, self.process_table,
            config=writeback_config, enabled=writeback_enabled,
        )
        self.fs.writeback = self.writeback
        #: The VFS layer: path namespace, per-task descriptor tables,
        #: ref-counted open files.  Pure bookkeeping (no simulated
        #: cost); the costed syscalls below delegate to it.
        self.vfs = VFS(self)
        self.memory_cost_model = MemoryCostModel()
        self.disk_cost_model = DiskCostModel(self.device)

        # The split framework's hooks (Table 2), resolved once: a split
        # scheduler observes page dirtying and freeing on the bus, each
        # only if its class implements the hook, so a write on a stack
        # whose scheduler ignores them publishes nothing; a syscall
        # calls its scheduler's entry or return hook only if the class
        # overrides it.  A block-only scheduler gets no hooks at all.
        #: The scheduler's ``syscall_entry`` / ``syscall_return``, or
        #: None where its class keeps the base no-op.
        self._sched_entry = self._sched_return = None
        if self.scheduler is not None:
            sched = self.scheduler
            implements = type(sched)
            if implements.syscall_entry is not SchedulerHooks.syscall_entry:
                self._sched_entry = sched.syscall_entry
            if implements.syscall_return is not SchedulerHooks.syscall_return:
                self._sched_return = sched.syscall_return
            if implements.on_buffers_dirty is not SchedulerHooks.on_buffers_dirty:
                self.bus.subscribe(
                    PageDirtied,
                    lambda e: sched.on_buffers_dirty(
                        e.inode_id, e.first, e.stop, e.causes, e.old_causes
                    ),
                )
            if implements.on_buffer_free is not SchedulerHooks.on_buffer_free:
                self.bus.subscribe(
                    PageFreed, lambda e: sched.on_buffer_free(e.inode_id, e.first, e.stop)
                )
            sched.attach_stack(self)
        #: Whether the scheduler takes either syscall hook.
        self._sched_hooked = self._sched_entry is not None or self._sched_return is not None

    # -- process management -------------------------------------------------

    def spawn(self, name: str, priority: int = 4, **kwargs) -> Task:
        """Create an application task."""
        return self.process_table.spawn(name, priority=priority, **kwargs)

    # -- hook plumbing --------------------------------------------------------

    def _hooked(self) -> bool:
        """Whether a syscall runs its entry and return hooks: the
        scheduler takes one, or a ``SyscallEnter``/``SyscallReturn``
        subscriber is watching (the lists are live: a subscriber added
        after set-up counts).  Without one, a call builds no ``info``
        and runs neither hook.  :meth:`_transfer` (read and write, the
        memory-speed paths) inlines this test and both hooks."""
        return self._sched_hooked or bool(self._sub_sys_enter) or bool(self._sub_sys_return)

    def _entry(self, task: Task, call: str, info: Dict[str, Any]):
        """Run the syscall-entry hooks; returns what the caller must
        ``yield from`` before the call body: the scheduler's entry
        generator, or ``()`` when it lets the call proceed at once."""
        if self._sub_sys_enter:
            self.bus.publish(SyscallEnter(self.env.now, task, call, info))
        if self._sched_entry is not None:
            gen = self._sched_entry(task, call, info)
            if gen is not None:
                return gen
        return ()

    def _return(self, task: Task, call: str, info: Dict[str, Any]) -> None:
        if self._sched_return is not None:
            self._sched_return(task, call, info)
        if self._sub_sys_return:
            self.bus.publish(SyscallReturn(self.env.now, task, call, info))

    # -- the syscall API --------------------------------------------------------

    def creat(self, task: Task, path: str, mode: str = "r+",
              causes=None, readahead: int = 0):
        """Generator: create a file, returning an open handle."""
        hooked = self._hooked()
        if hooked:
            info = {"path": path}
            yield from self._entry(task, "creat", info)
        yield from self.cpu.consume(task, self.cpu.syscall_cost())
        inode = self.fs.create(task, path)
        if hooked:
            self._return(task, "creat", info)
        return self.vfs.register(
            task, inode, mode=mode, causes=causes, readahead=readahead
        )

    def mkdir(self, task: Task, path: str, parents: bool = False):
        """Generator: create a directory.

        ``parents=True`` is ``mkdir -p``: missing ancestors are created
        first (each one a full mkdir, cost and hooks included) and an
        already-existing directory is not an error.
        """
        if parents:
            inode = self.fs.lookup(path)
            if inode is not None:
                if not inode.is_dir:
                    raise NotADirectoryError(path)
                return inode
            for ancestor in self.vfs.missing_parents(path):
                yield from self.mkdir(task, ancestor)
        hooked = self._hooked()
        if hooked:
            info = {"path": path}
            yield from self._entry(task, "mkdir", info)
        yield from self.cpu.consume(task, self.cpu.syscall_cost())
        inode = self.fs.create(task, path, is_dir=True)
        if hooked:
            self._return(task, "mkdir", info)
        return inode

    def open(self, task: Task, path: str, create: bool = False,
             mode: Optional[str] = None, causes=None, readahead: int = 0):
        """Generator: open (optionally creating) a file.

        ``create=True`` creates a missing file without truncating or
        appending; a Python mode string (``"r"``, ``"r+"``, ``"w"``,
        ``"a"``, ``"x"``, …) implies its own create/truncate/append
        behaviour.  Opening an existing file fires no syscall hook and
        publishes no bus event, so scheduler hook sequences do not
        move.
        """
        flags = parse_mode(mode) if mode is not None else None
        inode = self.fs.lookup(path)
        if inode is None:
            wants_create = create or (flags is not None and flags.create)
            if not wants_create:
                raise FileNotFoundError(path)
            return (
                yield from self.creat(
                    task, path, mode=mode or "r+",
                    causes=causes, readahead=readahead,
                )
            )
        if flags is not None and flags.exclusive:
            raise FileExistsError(path)
        if inode.is_dir:
            raise IsADirectoryError(path)
        yield from self.cpu.consume(task, self.cpu.syscall_cost())
        if flags is not None and flags.truncate and inode.size:
            self.fs.truncate(task, inode, 0)
        handle = self.vfs.register(
            task, inode, mode=mode or "r+", causes=causes, readahead=readahead
        )
        if flags is not None and flags.append:
            handle.pos = inode.size
        return handle

    def close(self, handle: OpenFile):
        """Generator: release a descriptor.

        Returns True when this close freed an unlinked inode's
        resources (the POSIX deferred-free path).  Like ``open``, it
        fires no syscall hook and publishes no bus event.
        """
        yield from self.cpu.consume(handle.task, self.cpu.syscall_cost())
        return self.vfs.release(handle)

    def rmdir(self, task: Task, path: str):
        """Generator: remove an empty directory."""
        hooked = self._hooked()
        if hooked:
            info = {"path": path}
            yield from self._entry(task, "rmdir", info)
        yield from self.cpu.consume(task, self.cpu.syscall_cost())
        self.vfs.rmdir(task, path)
        if hooked:
            self._return(task, "rmdir", info)

    def rename(self, task: Task, old_path: str, new_path: str):
        """Generator: move a file or directory (subtrees move whole)."""
        hooked = self._hooked()
        if hooked:
            info = {"path": old_path, "new_path": new_path}
            yield from self._entry(task, "rename", info)
        yield from self.cpu.consume(task, self.cpu.syscall_cost())
        inode = self.vfs.rename(task, old_path, new_path)
        if hooked:
            self._return(task, "rename", info)
        return inode

    def stat(self, task: Task, path: str):
        """Generator: file metadata (fsspec-shaped info dict)."""
        hooked = self._hooked()
        if hooked:
            info = {"path": path}
            yield from self._entry(task, "stat", info)
        yield from self.cpu.consume(task, self.cpu.syscall_cost())
        result = self.vfs.info(path)
        if hooked:
            self._return(task, "stat", info)
        return result

    def ls(self, task: Task, path: str, detail: bool = False):
        """Generator: list a directory (one getdents-ish syscall)."""
        hooked = self._hooked()
        if hooked:
            info = {"path": path}
            yield from self._entry(task, "ls", info)
        yield from self.cpu.consume(task, self.cpu.syscall_cost())
        result = self.vfs.ls(path, detail=detail)
        if hooked:
            self._return(task, "ls", info)
        return result

    def read(self, task: Task, inode: Inode, offset: int, nbytes: int, direct: bool = False):
        """Read: checks its range, then returns the call's generator,
        which returns the bytes actually read.

        ``direct=True`` is O_DIRECT: the page cache is bypassed (used
        by hypervisors running with cache=none).
        """
        if offset < 0 or nbytes < 0:
            raise ValueError(f"negative read range: offset={offset} nbytes={nbytes}")
        body = self.fs.read_direct if direct else self.fs.read
        return self._transfer(task, "read", inode, offset, nbytes, direct, body)

    def write(self, task: Task, inode: Inode, offset: int, nbytes: int, direct: bool = False):
        """Write: checks its range, then returns the call's generator,
        which returns the bytes written.

        Buffered by default; ``direct=True`` is synchronous O_DIRECT.
        """
        if offset < 0 or nbytes < 0:
            raise ValueError(f"negative write range: offset={offset} nbytes={nbytes}")
        body = self.fs.write_direct if direct else self.fs.write
        return self._transfer(task, "write", inode, offset, nbytes, direct, body)

    def _transfer(self, task: Task, call: str, inode: Inode, offset: int,
                  nbytes: int, direct: bool, body):
        """Generator: the read or write syscall *call*, moving data with
        ``body(task, inode, offset, nbytes)``; returns what it returns.

        A cache hit or a cached overwrite is a memory-speed call, so
        this frame runs the hooks (:meth:`_entry`, :meth:`_return`) and
        the CPU's acquire/grant/timeout/release (:meth:`CPU.consume`)
        itself: the same events in the same order, without their
        frames.
        """
        hooked = self._sched_hooked or self._sub_sys_enter or self._sub_sys_return
        if hooked:
            info = {"inode": inode, "offset": offset, "nbytes": nbytes, "direct": direct}
            if self._sub_sys_enter:
                self.bus.publish(SyscallEnter(self.env.now, task, call, info))
            if self._sched_entry is not None:
                gen = self._sched_entry(task, call, info)
                if gen is not None:
                    yield from gen
        cpu = self.cpu
        seconds = cpu.syscall_cost(nbytes)
        grant = cpu.acquire()
        done = 0.0
        try:
            yield grant
            yield Timeout(self.env, seconds)
            done = seconds
        finally:
            cpu.release(grant, done)
        n = yield from body(task, inode, offset, nbytes)
        if hooked:
            info["result"] = n
            if self._sched_return is not None:
                self._sched_return(task, call, info)
            if self._sub_sys_return:
                self.bus.publish(SyscallReturn(self.env.now, task, call, info))
        return n

    def fsync(self, task: Task, inode: Inode):
        """Generator: force the file durable."""
        hooked = self._hooked()
        if hooked:
            info = {"inode": inode, "dirty_bytes": self.cache.dirty_bytes_of(inode.id)}
            yield from self._entry(task, "fsync", info)
        yield from self.cpu.consume(task, self.cpu.syscall_cost())
        yield from self.fs.fsync(task, inode)
        if hooked:
            self._return(task, "fsync", info)

    def truncate(self, task: Task, inode: Inode, new_size: int):
        """Generator: resize a file (shrinking discards dirty buffers)."""
        hooked = self._hooked()
        if hooked:
            info = {"inode": inode, "new_size": new_size}
            yield from self._entry(task, "truncate", info)
        yield from self.cpu.consume(task, self.cpu.syscall_cost())
        self.fs.truncate(task, inode, new_size)
        if hooked:
            self._return(task, "truncate", info)

    def unlink(self, task: Task, path: str):
        """Generator: delete a file (dirty buffers are discarded).

        With live handles on the file only the *name* disappears; the
        inode's pages and blocks survive until the last close (POSIX
        deferred free, bookkeeping in the VFS layer).
        """
        hooked = self._hooked()
        if hooked:
            info = {"path": path}
            yield from self._entry(task, "unlink", info)
        yield from self.cpu.consume(task, self.cpu.syscall_cost())
        self.vfs.unlink(task, path)
        if hooked:
            self._return(task, "unlink", info)
