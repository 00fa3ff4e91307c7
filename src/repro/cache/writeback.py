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

from typing import TYPE_CHECKING, Dict, List

from repro.cache.page import Page
from repro.obs.bus import WritebackBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.cache import PageCache
    from repro.proc import ProcessTable, Task
    from repro.sim.core import Environment


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
        self.bus = cache.bus
        self._sub_batch = self.bus.listeners(WritebackBatch)
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

    def over_background(self) -> bool:
        return self.cache.dirty_fraction > self.config.dirty_background_ratio

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
        config = self.config
        while True:
            timer = self.env.timeout(config.wakeup_interval)
            self._kick = self.env.event()
            from repro.sim.events import AnyOf

            yield AnyOf(self.env, [timer, self._kick])
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
        expired = []
        for page in self.cache.iter_dirty_by_age():
            if page.dirtied_at > cutoff:
                break  # age-ordered: the rest are younger
            expired.append(page)
        if expired:
            yield from self._writeback_pages(expired, reason="expired")

    def _flush_batch(self, max_pages: int):
        pages = self.cache.dirty_pages_by_age(limit=max_pages)
        if not pages:
            return 0
        yield from self._writeback_pages(pages, reason="background")
        return len(pages)

    def _writeback_pages(self, pages: List[Page], reason: str = "background"):
        """Group pages by file and hand them to the filesystem."""
        if self._sub_batch:
            self.bus.publish(WritebackBatch(self.env.now, len(pages), reason))
        by_inode: Dict[int, List[Page]] = {}
        for page in pages:
            by_inode.setdefault(page.key.inode_id, []).append(page)

        done_events = []
        for inode_id, file_pages in by_inode.items():
            inode = self.fs.inode_by_id(inode_id)
            if inode is None:
                continue
            file_pages.sort(key=lambda p: p.key.index)
            events = self.fs.writepages(self.task, inode, file_pages)
            done_events.extend(events)
        self.flushes += 1
        self.pages_flushed += len(pages)

        # Pace the daemon: wait for the batch to reach the platter so we
        # do not flood the block queue unboundedly.
        from repro.sim.events import AllOf

        if done_events:
            yield AllOf(self.env, done_events)
            # A kernel flusher survives I/O errors: failed pages are
            # already re-dirtied, so just count and move on.
            for event in done_events:
                if getattr(event.value, "failed", False):
                    self.write_errors += 1
        self._wake_throttled()
