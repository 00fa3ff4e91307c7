"""Runtime simulation sanitizer: invariants enforced while running.

The repo's determinism guarantees ("byte-identical for any ``--jobs``,
any shard count, any queue depth") are normally verified *after the
fact* by hashing experiment output.  The sanitizer turns them into
properties checked *while the simulation runs*, so a violation names
the exact event that broke the contract instead of a diff two layers
later.  Three attachment points:

- :class:`SanitizedEnvironment` — a drop-in :class:`Environment`
  subclass whose dispatch path verifies, per event, that the virtual
  clock never runs backwards and that no pending same-instant entry
  with a smaller ``(time, priority, eid)`` key was skipped (the class
  of the PR 8 same-instant ordering bug, where URGENT interlopers ran
  after other same-instant entries).  The checked loop replaces the
  inlined fast path of :meth:`Environment.run`, so the production
  kernel keeps zero sanitizer attributes and zero extra branches when
  the sanitizer is off — enabling it swaps the class, not the code.
- :class:`StackSanitizer` — per-machine checks (dispatch-slot count
  bounded by device channels, block-layer request conservation, token
  conservation per tenant bucket, page-cache accounting) implemented
  as stack-bus subscribers.  With the sanitizer off no subscriber
  exists, so the zero-subscriber fast path never even constructs the
  events.
- the shard layer — :class:`~repro.sim.shard.channel.InterShardChannel`
  and :class:`~repro.sim.shard.environment.ShardEnvironment` call
  :func:`check_delivery` / duplicate-sequence guards when built with
  sanitize on, enforcing conservative-sync causality
  (``arrival >= send + link_latency``, never into a shard's past).

Every violation raises :class:`SanitizerError` carrying a structured
snippet of recent event history, formatted into the message.
"""

from __future__ import annotations

from collections import deque
from typing import Any, List, Optional, Tuple

from repro.sim.core import EmptySchedule, Environment, StopSimulation
from repro.sim.events import Event, NORMAL
from repro.units import PAGE_SIZE

#: Dispatch records kept for the error snippet (per environment).
HISTORY_DEPTH = 32


class SanitizerError(AssertionError):
    """A simulation invariant was violated while the sanitizer was on.

    ``history`` holds structured ``(time, priority, eid, kind)`` records
    of the most recent dispatches (oldest first); ``context`` carries
    check-specific details.  Both are rendered into ``str(error)`` so a
    bare traceback is already actionable.
    """

    def __init__(
        self,
        message: str,
        history: Optional[List[Tuple]] = None,
        context: Optional[dict] = None,
    ):
        self.history = list(history or ())
        self.context = dict(context or {})
        parts = [message]
        if self.context:
            details = ", ".join(f"{k}={v!r}" for k, v in self.context.items())
            parts.append(f"  context: {details}")
        if self.history:
            parts.append("  recent dispatches (oldest first):")
            for record in self.history:
                t, priority, eid, kind = record
                parts.append(f"    t={t!r} priority={priority} eid={eid} {kind}")
        super().__init__("\n".join(parts))


class SanitizedEnvironment(Environment):
    """An :class:`Environment` whose dispatch path checks invariants.

    Semantics are identical to the base class — same queue, same entry
    selection (``_pop`` is *inherited*, so kernel bugs there are
    caught, not masked), same results — but every dispatched entry is
    verified:

    - **monotonic clock**: an entry's time is never below the previous
      dispatch's time;
    - **dispatch order**: at the moment an entry is dispatched, the
      heap head does not sort before it.  In a correct kernel the
      dispatched entry is always the minimum of everything pending; a
      selection that skips it (the PR 8 bug: URGENT interlopers run
      after other same-instant entries) breaks exactly this.
    - **scheduling sanity**: ``schedule()`` rejects negative delays
      (the unchecked fast path would silently rewind the clock).

    The cost is one non-inlined dispatch per event (~2× the fast
    path); the payoff is that "byte-identical" failures surface at the
    first out-of-order event with the event history attached.
    """

    __slots__ = ("_san_history", "_san_prev_time")

    def __init__(self, initial_time: float = 0.0):
        super().__init__(initial_time)
        self._san_history: deque = deque(maxlen=HISTORY_DEPTH)
        self._san_prev_time = float(initial_time)

    # -- invariant checks ---------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        if delay < 0:
            raise SanitizerError(
                "schedule() with a negative delay would rewind the clock",
                history=list(self._san_history),
                context={"delay": delay, "now": self.now, "event": type(event).__name__},
            )
        super().schedule(event, priority, delay)

    def _dispatch(self, entry: Tuple[float, int, int, Event]) -> None:
        t = entry[0]
        if t < self._san_prev_time:
            raise SanitizerError(
                "monotonic clock violation: dispatching into the past",
                history=list(self._san_history),
                context={"entry_time": t, "previous_time": self._san_prev_time},
            )
        self._san_prev_time = t
        queue = self._queue
        if queue and queue[0] < entry:
            pending = queue[0]
            raise SanitizerError(
                "dispatch order violation: dispatching an entry while the heap "
                "head holds a pending entry that sorts before it — events run "
                "out of (time, priority, eid) order",
                history=list(self._san_history),
                context={
                    "dispatching": (entry[0], entry[1], entry[2], type(entry[3]).__name__),
                    "pending": (pending[0], pending[1], pending[2], type(pending[3]).__name__),
                },
            )
        self._san_history.append(
            (entry[0], entry[1], entry[2], type(entry[3]).__name__)
        )
        super()._dispatch(entry)

    # -- checked run loop ---------------------------------------------------

    def run(self, until: Any = None) -> Any:
        """The checked twin of :meth:`Environment.run`: a loop over
        :meth:`step`, so every event goes through the inherited
        :meth:`_pop` and the checked :meth:`_dispatch` instead of the
        inlined fast path.  Keeping the fast path free of sanitizer
        hooks is what makes the feature zero-cost when off.
        """
        if self._halted:
            return self._halt_reason
        until = self._resolve_until(until)
        if isinstance(until, tuple) and until[0] is self._ALREADY_DONE:
            return until[1]
        try:
            while not self._halted:
                self.step()
            return self._halt_reason
        except StopSimulation as stop:
            return stop.value
        except EmptySchedule:
            if isinstance(until, Event) and not until.triggered:
                raise RuntimeError(
                    "no scheduled events left but until event was not triggered"
                )
            return None


class StackSanitizer:
    """Per-machine invariant checks, attached as stack-bus subscribers.

    Attached by ``build_node`` when the sanitize flag is on; with the
    flag off this object is never constructed, no subscription exists,
    and the bus's zero-subscriber fast path skips even building the
    events — the same inertness contract the tracer and health monitor
    follow.

    Checks (all cheap — a few comparisons per block-layer event):

    - **slot bound**: the device never serves more concurrent attempts
      than it has channels (``device.active <= channels``);
    - **inflight bound**: dispatched-and-uncompleted requests never
      exceed the engine's slot count;
    - **request conservation**: ``submitted >= completed + failed +
      inflight`` at every completion (an over-completion means an event
      fired twice);
    - **token conservation** per tenant bucket: refunds never exceed
      charges, and the balance never exceeds the burst cap;
    - **page-cache accounting**: clean plus dirty pages make up the
      cache's length, the cache exceeds its capacity only with dirty
      pages, and the dirty-byte counter matches the dirty pages;
    - **CPU cores**: ``0 <= busy cores <= cores``, and tasks wait for a
      core only while every core is busy;
    - **block conservation**: the data blocks the allocator counts as
      allocated are exactly those the files' block maps hold (named
      files plus unlinked-but-open ones), so no block leaks and none
      is freed twice;
    - **dirty runs**: each file's dirty runs are non-empty, sorted and
      disjoint, and the age list holds exactly the indexed runs; their
      pages make up the cache's dirty count, and their page tags (with
      those a crash lost) the tag manager's count and bytes (a run's
      pages share one cause set, so each costs that set's tag); a run in flight is listed in the
      write carrying it, and one not in flight is in none;
    - **dirty-run blocks**: each run of a completed write that is still
      in the cache has either no disk block or its file's block-map
      entries across all its pages — what lets an overwrite skip block
      work;
    - **cleaned runs**: after a write that did not fail, no run of it
      is under writeback, and each one neither dirtied again mid-flight
      nor freed is clean — out of the dirty runs and in clean extents
      on its disk blocks unless the cache, full, evicted it at once.
    """

    #: Relative slack for float token accounting.
    EPSILON = 1e-6

    def __init__(self, machine):
        from repro.obs.bus import BlockComplete, DeviceStart

        self.machine = machine
        self.queue = machine.block_queue
        self.device = machine.block_queue.device
        self._history: deque = deque(maxlen=16)
        bus = machine.bus
        self._unsubs = [
            bus.subscribe(DeviceStart, self._on_device_start),
            bus.subscribe(BlockComplete, self._on_block_complete),
        ]

    def close(self) -> None:
        """Detach every subscription (test hygiene)."""
        for unsub in self._unsubs:
            unsub()
        self._unsubs = []

    def _fail(self, message: str, **context) -> None:
        raise SanitizerError(message, history=list(self._history), context=context)

    def _on_device_start(self, event) -> None:
        self._history.append((event.time, 0, 0, f"DeviceStart/{event.op}"))
        channels = max(1, getattr(self.device, "channels", 1))
        active = getattr(self.device, "active", 0)
        if active > channels:
            self._fail(
                "slot bound violation: more concurrent device attempts than "
                "channels — a begin_service/end_service bracket leaked",
                active=active,
                channels=channels,
                device=getattr(self.device, "name", "?"),
            )

    def _on_block_complete(self, event) -> None:
        queue = self.queue
        self._history.append(
            (event.time, 0, 0, f"BlockComplete/#{getattr(event.request, 'id', '?')}")
        )
        if queue.inflight_count > queue.nslots:
            self._fail(
                "inflight bound violation: more outstanding requests than "
                "dispatch slots",
                inflight=queue.inflight_count,
                nslots=queue.nslots,
            )
        accounted = queue.completed + queue.failed + queue.inflight_count
        if accounted > queue.submitted:
            self._fail(
                "request conservation violation: completed + failed + "
                "inflight exceeds submitted — a done event fired twice?",
                submitted=queue.submitted,
                completed=queue.completed,
                failed=queue.failed,
                inflight=queue.inflight_count,
            )
        self._check_token_buckets()
        self._check_page_cache()
        self._check_cpu()
        self._check_blocks()
        runs = getattr(event.request, "runs", None)
        if runs:
            self._check_written_runs(runs, completed=not event.request.failed)
        self._check_dirty_runs()

    def _check_dirty_runs(self) -> None:
        cache = self.machine.cache
        indexed = 0
        for inode_id, (starts, runs) in cache._dirty.files.items():
            previous = None
            for start, run in zip(starts, runs):
                if (
                    run.inode_id != inode_id
                    or run.start != start
                    or run.start >= run.stop
                    or (previous is not None and previous.stop > run.start)
                    or run.next is None
                    or not run.dirty
                    or (run.batch is not None) != run.under_writeback
                    or (run.batch is not None and all(r is not run for r in run.batch))
                ):
                    self._fail(
                        "dirty-run violation: a file's runs overlap or are out "
                        "of order, a run left the age list, or its writeback "
                        "state disagrees with the write carrying it",
                        run=(inode_id, run.start, run.stop),
                    )
                previous = run
            indexed += len(runs)
        aged = pages = cost = 0
        tags = cache.tags
        for run in cache.dirty_runs():
            aged += 1
            pages += len(run)
            cost += len(run) * tags.tag_cost(run.causes)
        if (
            aged != indexed
            or pages != cache.dirty_pages
            or tags._page_tags != pages + cache.lost_tags
            or tags.bytes_allocated
            != cost + cache.lost_tag_bytes + sum(tags._allocations.values())
        ):
            self._fail(
                "dirty-run violation: the age list and the per-file index "
                "disagree, or the runs' pages and tags disagree with the "
                "cache's and tag manager's counts",
                aged=aged,
                indexed=indexed,
                pages=pages,
                dirty=cache.dirty_pages,
                page_tags=tags._page_tags,
                bytes_allocated=tags.bytes_allocated,
                run_tag_bytes=cost,
            )

    def _check_written_runs(self, runs, completed: bool) -> None:
        fs = self.machine.fs
        for run in runs:
            where = (run.inode_id, run.start, run.stop)
            if run.under_writeback:
                self._fail(
                    "written-run violation: a run is still under "
                    "writeback after its write finished",
                    run=where,
                )
            if run.next is None:
                if completed and not run.dirty:
                    self._check_cleaned(run)
                continue  # cleaned, or freed while in flight
            if completed and not run.redirtied:
                self._fail(
                    "written-run violation: a run neither dirtied again "
                    "nor freed while its write was in flight is still dirty",
                    run=where,
                )
            block = run.disk_block
            if block is not None:
                inode = fs.inode_by_id(run.inode_id)
                mapped = None if inode is None else inode.block_map.runs(run.start, run.stop)
                if mapped != [(run.start, block, len(run))]:
                    self._fail(
                        "dirty-run block violation: a dirty run's disk "
                        "blocks are not its file's block-map entries",
                        run=where,
                        disk_block=block,
                        mapped=mapped,
                    )

    def _check_cleaned(self, run) -> None:
        """A run its completed write cleaned: out of the dirty runs and
        in clean extents on its disk blocks, unless the cache was full
        enough to evict it at once."""
        cache = self.machine.cache
        inode_id = run.inode_id
        misplaced = False
        index = run.start
        while index < run.stop and not misplaced:
            end, extent = cache._locate(inode_id, index, run.stop)
            clean_block = None if extent is None else extent.block_of(index)
            if extent is None:
                misplaced = len(cache) < cache.capacity_pages
            else:
                misplaced = clean_block != run.block_of(index)
            if not misplaced:
                index = end
        if misplaced or cache._dirty.covering(inode_id, run.start, run.stop):
            if not misplaced:
                index, clean_block = run.start, None  # still dirty: name its first page
            self._fail(
                "cleaned-run violation: a run its write cleaned is still "
                "dirty or is not clean on its disk blocks",
                run=(inode_id, run.start, run.stop),
                page=index,
                disk_block=run.block_of(index),
                clean_block=clean_block,
            )

    def _check_blocks(self) -> None:
        fs = self.machine.fs
        mapped = sum(len(inode.block_map) for inode in fs._namespace.values())
        mapped += sum(len(inode.block_map) for inode in self.machine.vfs._orphans.values())
        if fs.allocator.allocated != mapped:
            self._fail(
                "block conservation violation: the allocator's allocated "
                "blocks disagree with the blocks the files map — a block "
                "leaked or was freed twice",
                allocated=fs.allocator.allocated,
                mapped=mapped,
            )

    def _check_cpu(self) -> None:
        cpu = self.machine.cpu
        busy, waiting = cpu.busy_cores, len(cpu.waiters)
        if not 0 <= busy <= cpu.cores or (waiting and busy < cpu.cores):
            self._fail(
                "CPU accounting violation: busy cores outside [0, cores], "
                "or a task waits while a core is free",
                busy_cores=busy,
                cores=cpu.cores,
                waiting=waiting,
            )

    def _check_page_cache(self) -> None:
        cache = self.machine.cache
        clean, dirty = cache.clean_pages, cache.dirty_pages
        # A negative count would make len() itself raise.
        if clean < 0 or clean + dirty != len(cache):
            self._fail(
                "page-cache accounting violation: clean + dirty pages do "
                "not make up the cached pages",
                clean=clean,
                dirty=dirty,
            )
        resident = clean + dirty
        if resident > max(cache.capacity_pages, dirty):
            self._fail(
                "page-cache accounting violation: over capacity while "
                "holding evictable clean pages",
                resident=resident,
                capacity=cache.capacity_pages,
                dirty=dirty,
            )
        if cache.dirty_bytes != dirty * PAGE_SIZE:
            self._fail(
                "page-cache accounting violation: dirty bytes disagree "
                "with the dirty pages",
                dirty_bytes=cache.dirty_bytes,
                dirty=dirty,
            )
        tags = cache.tags
        live, allocated = tags.live_tags, tags.bytes_allocated
        # Every dirty page holds a tag (journal transactions hold the
        # rest), and every live tag costs at least the base overhead.
        if live < dirty or not (
            tags.TAG_OVERHEAD_BASE * live <= allocated <= tags.max_bytes_allocated
        ):
            self._fail(
                "tag accounting violation: live tags, their bytes and the "
                "peak disagree with each other or with the dirty pages",
                live_tags=live,
                dirty=dirty,
                bytes_allocated=allocated,
                max_bytes_allocated=tags.max_bytes_allocated,
            )

    def _check_token_buckets(self) -> None:
        registry = getattr(self.machine.scheduler, "buckets", None)
        if registry is None:
            return
        # dict.fromkeys: deterministic dedupe of shared buckets
        # (insertion order), where set() would hash-order them.
        for bucket in dict.fromkeys(registry.by_pid.values()):
            slack = self.EPSILON * max(1.0, bucket.charged_total)
            if bucket.refunded_total > bucket.charged_total + slack:
                self._fail(
                    "token conservation violation: a tenant bucket was "
                    "refunded more than it was ever charged",
                    charged=bucket.charged_total,
                    refunded=bucket.refunded_total,
                )
            if bucket.balance > bucket.cap + self.EPSILON * max(1.0, bucket.cap):
                self._fail(
                    "token conservation violation: bucket balance exceeds "
                    "its burst cap",
                    balance=bucket.balance,
                    cap=bucket.cap,
                )


def attach_sanitizer(machine) -> StackSanitizer:
    """Attach a :class:`StackSanitizer` to one built machine."""
    return StackSanitizer(machine)


def check_delivery(env_now: float, arrival: float, message) -> None:
    """Conservative-sync causality: never deliver into a shard's past.

    Called by the shard layer (inject path) when sanitize is on; a
    message whose arrival precedes the receiving shard's clock means
    the epoch protocol released it late — the sync window no longer
    bounds the link latency.
    """
    if arrival < env_now:
        raise SanitizerError(
            "conservative-sync causality violation: message would arrive in "
            "the receiving shard's past",
            context={
                "arrival": arrival,
                "shard_now": env_now,
                "src_node": getattr(message, "src_node", "?"),
                "dst_node": getattr(message, "dst_node", "?"),
                "seq": getattr(message, "seq", "?"),
                "kind": getattr(message, "kind", "?"),
            },
        )
