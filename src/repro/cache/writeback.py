"""The writeback daemon (pdflush) and dirty throttling.

pdflush is the canonical *proxy* task of the paper: it submits (and,
via delayed allocation, dirties metadata for) I/O that other tasks
caused.  Its behaviour follows Linux:

- every ``wakeup_interval`` it flushes pages dirtier than
  ``dirty_expire`` seconds;
- when dirty bytes exceed ``dirty_background_ratio`` of memory it
  flushes down to that watermark;
- writers crossing ``dirty_ratio`` are blocked in
  :meth:`balance_dirty_pages` until the flushers catch up (this is the
  foreground throttling the paper notes applications already cope
  with).
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List

from repro.cache.page import DirtyRun
from repro.sim.events import PENDING, AllOf, Event

_start_of = attrgetter("start")
_inode_of = attrgetter("inode_id")

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.cache import PageCache
    from repro.proc import ProcessTable, Task
    from repro.sim.core import Environment


def pages_by_file(runs: List[DirtyRun]) -> Dict[int, List[DirtyRun]]:
    """Dirty *runs* grouped by file, files in order of first appearance,
    each file's runs sorted by index (a file's runs are disjoint)."""
    inode_ids = list(map(_inode_of, runs))
    by_inode: Dict[int, List[DirtyRun]] = {inode_id: [] for inode_id in dict.fromkeys(inode_ids)}
    for inode_id, run in zip(inode_ids, runs):
        by_inode[inode_id].append(run)
    for file_runs in by_inode.values():
        file_runs.sort(key=_start_of)
    return by_inode


class _Wake(Event):
    """The flusher's wake-up for one pass: its timer or a kick, whichever
    is processed first, triggers it (a later one is ignored).

    Both reach it through one callback, so it triggers one step after
    its cause, as an ``AnyOf(timer, kick)`` would, with the same eids.
    """

    __slots__ = ()

    def fire(self, _event) -> None:
        if self._value is PENDING:
            self.succeed()


class WritebackConfig:
    """Tunables mirroring /proc/sys/vm/dirty_*."""

    __slots__ = (
        "dirty_background_ratio",
        "dirty_ratio",
        "dirty_expire",
        "wakeup_interval",
        "batch_pages",
    )

    def __init__(
        self,
        dirty_background_ratio: float = 0.10,
        dirty_ratio: float = 0.20,
        dirty_expire: float = 30.0,
        wakeup_interval: float = 5.0,
        batch_pages: int = 2048,
    ):
        if not 0 < dirty_background_ratio <= dirty_ratio <= 1:
            raise ValueError("need 0 < background <= dirty_ratio <= 1")
        self.dirty_background_ratio = dirty_background_ratio
        self.dirty_ratio = dirty_ratio
        self.dirty_expire = dirty_expire
        self.wakeup_interval = wakeup_interval
        self.batch_pages = batch_pages


class WritebackDaemon:
    """Background flusher; one per filesystem instance."""

    def __init__(
        self,
        env: "Environment",
        cache: "PageCache",
        fs,
        process_table: "ProcessTable",
        config: WritebackConfig = None,
        enabled: bool = True,
    ):
        self.env = env
        self.cache = cache
        self.fs = fs
        self.config = config or WritebackConfig()
        #: pdflush runs at the default (4) priority — the root cause of
        #: Figure 3's unfairness under CFQ.
        self.task = process_table.spawn("pdflush", kernel=True)
        self.enabled = enabled
        self._kick = env.event()
        self._throttle_waiters: List = []
        self._flush_target: float = float("inf")
        self.flushes = 0
        self.pages_flushed = 0
        #: Write requests that failed permanently (their pages were
        #: re-dirtied by the block layer and will be retried later).
        self.write_errors = 0
        if enabled:
            env.process(self._run(), name="pdflush")

    def kick(self) -> None:
        """Request an immediate flush pass."""
        if not self._kick.triggered:
            self._kick.succeed()

    def request_flush(self, target_bytes: float) -> None:
        """Ask the daemon to flush until dirty bytes <= *target_bytes*.

        Schedulers that bound the write backlog below the background
        ratio (e.g. AFQ's admission window) use this — the paper's
        "rely on Linux to perform writeback, and throttle write system
        calls to control how much dirty data accumulates" option.
        """
        self._flush_target = min(self._flush_target, target_bytes)
        self.kick()

    # -- foreground throttling ---------------------------------------------

    def over_limit(self) -> bool:
        return self.cache.dirty_fraction > self.config.dirty_ratio

    def balance_dirty_pages(self, task: "Task"):
        """Block *task* while dirty bytes exceed the hard dirty ratio."""
        while self.enabled and self.over_limit():
            self.kick()
            waiter = self.env.event()
            self._throttle_waiters.append(waiter)
            yield waiter

    def _wake_throttled(self) -> None:
        if not self.over_limit():
            waiters, self._throttle_waiters = self._throttle_waiters, []
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.succeed()

    # -- the flusher --------------------------------------------------------

    def _run(self):
        env = self.env
        config = self.config
        while True:
            timer = env.timeout(config.wakeup_interval)
            self._kick = kick = env.event()
            wake = _Wake(env)
            timer.callbacks.append(wake.fire)
            kick.callbacks.append(wake.fire)
            yield wake
            if not timer.processed:
                # Kicked early: the losing timer has no other
                # subscribers, so let the run loop sweep it lazily
                # instead of executing its stale callbacks.
                timer.cancel()

            # Flush until below the background watermark (or an explicit
            # flush target), then expired pages.
            goal = min(
                self.config.dirty_background_ratio * self.cache.memory_bytes,
                self._flush_target,
            )
            while self.cache.dirty_bytes > goal:
                flushed = yield from self._flush_batch(config.batch_pages)
                self._wake_throttled()
                if flushed == 0:
                    break
            self._flush_target = float("inf")
            yield from self._flush_expired()
            self._wake_throttled()

    def _flush_expired(self):
        cutoff = self.env.now - self.config.dirty_expire
        oldest = self.cache.oldest_dirty()
        if oldest is None or oldest.dirtied_at > cutoff:
            return  # nothing expired: the idle pass
        expired = []
        for run in self.cache.dirty_runs():
            if run.under_writeback:
                continue
            if run.dirtied_at > cutoff:
                break  # age-ordered: the rest are younger
            expired.append(run)
        yield from self._writeback_pages(expired)

    def _flush_batch(self, max_pages: int):
        runs = self.cache.dirty_pages_by_age(limit=max_pages)
        if not runs:
            return 0
        return (yield from self._writeback_pages(runs))

    def _writeback_pages(self, runs: List[DirtyRun]):
        """Group dirty runs by file and hand them to the filesystem,
        each file's in index order; returns the pages flushed."""
        pages = sum(map(len, runs))
        done_events = []
        for inode_id, file_runs in pages_by_file(runs).items():
            inode = self.fs.inode_by_id(inode_id)
            if inode is None:
                continue
            events = self.fs.writepages(self.task, inode, file_runs)
            done_events.extend(events)
        self.flushes += 1
        self.pages_flushed += pages

        # Pace the daemon: wait for the batch to reach the platter so we
        # do not flood the block queue unboundedly.
        if done_events:
            yield AllOf(self.env, done_events)
            # A kernel flusher survives I/O errors: failed pages are
            # already re-dirtied, so just count and move on.
            for event in done_events:
                if getattr(event.value, "failed", False):
                    self.write_errors += 1
        self._wake_throttled()
        return pages
