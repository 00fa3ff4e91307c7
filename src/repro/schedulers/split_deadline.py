"""Split-Deadline: latency goals via fsync scheduling (paper §5.2).

Built by restructuring the deadline scheduler around the split hooks:

- block **reads** keep FIFO deadlines + a location queue, as in
  Block-Deadline;
- the block-write deadline queue is replaced by an **fsync-deadline
  queue at the system-call level**: an fsync that would flood the disk
  (estimated from buffer-dirty state) is *held*, its file drained by
  asynchronous writeback (which creates no synchronization point), and
  issued only once the remaining dirty data is small enough that other
  deadlines are safe;
- at the block level, sync (fsync/journal) writes precede location-
  ordered async writeback, so a deferred checkpoint cannot stall a log
  append.

Two writeback regimes match the paper's PostgreSQL study (Figure 19):
with pdflush running, Split-Deadline merely caps global dirty bytes by
throttling write syscalls (*Split-Pdflush*); with ``own_writeback=True``
(and the stack's daemon disabled) the scheduler controls writeback
completely, flushing only when no deadline is imminent.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.block.request import BlockRequest
from repro.cache.writeback import pages_by_file
from repro.core.hooks import SplitScheduler
from repro.sim.events import AllOf
from repro.units import MB


class SplitDeadline(SplitScheduler):
    """Deadline scheduling with an fsync queue at the syscall level."""

    name = "split-deadline"
    framework = "split"

    def __init__(
        self,
        read_deadline: float = 0.05,
        fsync_deadline: float = 0.5,
        big_fsync_threshold: int = 256 * 1024,
        own_writeback: bool = False,
        dirty_cap: Optional[int] = 64 * MB,
        slack: float = 0.005,
        drain_chunk_pages: int = 256,
        commit_overhead: float = 0.02,
    ):
        super().__init__()
        self.read_deadline = read_deadline
        self.fsync_deadline = fsync_deadline
        self.big_fsync_threshold = big_fsync_threshold
        self.own_writeback = own_writeback
        self.dirty_cap = None if own_writeback else dirty_cap
        self.slack = slack
        self.drain_chunk_pages = drain_chunk_pages
        self.commit_overhead = commit_overhead
        #: Per-task deadline overrides.
        self._fsync_deadlines: Dict[int, float] = {}
        self._read_deadlines: Dict[int, float] = {}
        #: Active (held or running) fsync deadlines, pid -> absolute time.
        self._active_fsyncs: Dict[int, float] = {}
        #: Big fsyncs currently draining their files asynchronously.
        self._draining = 0
        # Block-level queues.
        self._read_fifo: deque = deque()
        self._read_sorted: List[Tuple[int, int, BlockRequest]] = []
        self._sync_writes: deque = deque()
        self._async_sorted: List[Tuple[int, int, BlockRequest]] = []
        self._head = 0
        self.os = None
        self.fsyncs_deferred = 0

    # -- configuration -------------------------------------------------------

    def set_fsync_deadline(self, task, deadline: float) -> None:
        self._fsync_deadlines[task.pid] = deadline

    def set_read_deadline(self, task, deadline: float) -> None:
        self._read_deadlines[task.pid] = deadline

    def fsync_deadline_for(self, task) -> float:
        return self._fsync_deadlines.get(task.pid, self.fsync_deadline)

    def read_deadline_for(self, task) -> float:
        return self._read_deadlines.get(task.pid, self.read_deadline)

    # -- lifecycle -----------------------------------------------------------

    def attach_stack(self, os) -> None:
        self.os = os
        if self.own_writeback:
            os.env.process(self._writeback_loop(), name="split-deadline-wb")

    # ------------------------------------------------------------------
    # system-call level: the fsync-deadline queue
    # ------------------------------------------------------------------

    def syscall_entry(self, task, call, info):
        if call == "fsync":
            return self._schedule_fsync(task, info)
        if call == "write" and self.dirty_cap is not None:
            return self._cap_dirty(task, info)
        return None

    def syscall_return(self, task, call, info) -> None:
        if call == "fsync":
            self._active_fsyncs.pop(task.pid, None)

    def _cap_dirty(self, task, info):
        """Split-Pdflush mode: bound the backlog pdflush can burst."""
        while self.os.cache.dirty_bytes > self.dirty_cap:
            self.os.writeback.kick()
            yield self.os.env.timeout(0.005)

    def _schedule_fsync(self, task, info):
        env = self.os.env
        inode = info["inode"]
        deadline = env.now + self.fsync_deadline_for(task)
        self._active_fsyncs[task.pid] = deadline

        # A big fsync is never issued directly: its data is drained by
        # asynchronous writeback (no synchronization point, so other
        # deadlines are unaffected) until the residue is small — even
        # if that overruns this fsync's own (long) deadline.
        if self.os.cache.dirty_bytes_of(inode.id) > self.big_fsync_threshold:
            self.fsyncs_deferred += 1
            self._draining += 1
            try:
                while self.os.cache.dirty_bytes_of(inode.id) > self.big_fsync_threshold:
                    yield from self._drain_chunk(inode)
            finally:
                self._draining -= 1

        # Small fsyncs: go immediately while nothing heavy is being
        # managed; under contention, wait until just before the
        # deadline so the drain can use the slack.
        while self._draining > 0:
            dirty = self.os.cache.dirty_bytes_of(inode.id)
            issue_at = deadline - self._flush_estimate(dirty) - self.slack
            now = env.now
            if now >= issue_at:
                break
            yield env.timeout(min(issue_at - now, 0.05))
        # The call body now runs: remaining flush + journal commit.

    def _flush_estimate(self, dirty_bytes: int) -> float:
        """Expected seconds to flush *dirty_bytes* plus a commit."""
        rate = self.os.disk_cost_model.sequential_rate
        return self.commit_overhead + 3.0 * dirty_bytes / rate

    def _drain_chunk(self, inode):
        pages = self.os.cache.dirty_pages_of(inode.id, limit=self.drain_chunk_pages)
        if not pages:
            yield self.os.env.timeout(0.002)
            return
        events = self.os.fs.writepages(self.os.writeback.task, inode, pages, sync=False)
        if events:
            yield AllOf(self.os.env, events)
        else:
            yield self.os.env.timeout(0.002)

    # ------------------------------------------------------------------
    # scheduler-owned writeback (pdflush disabled)
    # ------------------------------------------------------------------

    def _writeback_loop(self):
        env = self.os.env
        low_water = 8 * MB
        while True:
            yield env.timeout(0.01)
            cache = self.os.cache
            if cache.dirty_bytes < low_water and not self._aged_dirty(5.0):
                continue
            if self._deadline_imminent():
                continue  # stay out of the way
            pages = cache.dirty_pages_by_age(limit=self.drain_chunk_pages)
            events = []
            for inode_id, file_pages in pages_by_file(pages).items():
                inode = self.os.fs.inode_by_id(inode_id)
                if inode is None:
                    continue
                events.extend(
                    self.os.fs.writepages(self.os.writeback.task, inode, file_pages)
                )
            if events:
                yield AllOf(env, events)

    def _aged_dirty(self, age: float) -> bool:
        oldest = self.os.cache.oldest_dirty()
        return oldest is not None and self.os.env.now - oldest.dirtied_at >= age

    def _deadline_imminent(self, margin: float = 0.05) -> bool:
        now = self.os.env.now
        if self._read_fifo and self._read_fifo[0].deadline - now < margin:
            return True
        for deadline in self._active_fsyncs.values():
            if deadline - now < margin:
                return True
        return False

    # ------------------------------------------------------------------
    # block level
    # ------------------------------------------------------------------

    def add_request(self, request: BlockRequest) -> None:
        now = self.queue.env.now if self.queue is not None else 0.0
        if request.is_read:
            if request.deadline is None:
                request.deadline = now + self.read_deadline_for(request.submitter)
            self._read_fifo.append(request)
            bisect.insort(self._read_sorted, (request.block, request.id, request))
        elif request.sync:
            self._sync_writes.append(request)
        else:
            bisect.insort(self._async_sorted, (request.block, request.id, request))

    def next_request(self) -> Optional[BlockRequest]:
        now = self.queue.env.now if self.queue is not None else 0.0
        # 1. Expired reads.
        if self._read_fifo and self._read_fifo[0].deadline <= now:
            request = self._read_fifo.popleft()
            self._remove_sorted(self._read_sorted, request)
            self._head = request.end_block
            return request
        # 2. Sync writes (fsync data + journal commits).
        if self._sync_writes:
            request = self._sync_writes.popleft()
            self._head = request.end_block
            return request
        # 3. Reads in location order.
        if self._read_sorted:
            request = self._pop_located(self._read_sorted)
            self._read_fifo.remove(request)
            return request
        # 4. Async writeback in location order.
        if self._async_sorted:
            return self._pop_located(self._async_sorted)
        return None

    def _pop_located(self, entries: List[Tuple[int, int, BlockRequest]]) -> BlockRequest:
        index = bisect.bisect_left(entries, (self._head, -1))
        if index >= len(entries):
            index = 0
        _, _, request = entries.pop(index)
        self._head = request.end_block
        return request

    @staticmethod
    def _remove_sorted(entries: List[Tuple[int, int, BlockRequest]], request: BlockRequest) -> None:
        index = bisect.bisect_left(entries, (request.block, request.id))
        while index < len(entries):
            if entries[index][2] is request:
                entries.pop(index)
                return
            index += 1

    def has_work(self) -> bool:
        return bool(self._read_fifo or self._sync_writes or self._async_sorted)
