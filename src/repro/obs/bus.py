"""The cross-layer stack event bus and its typed event vocabulary.

Every layer of the simulated stack — syscall facade, page cache,
writeback daemon, journal, block queue, device models, fault injector —
publishes its lifecycle transitions as *typed events* on one shared
:class:`StackBus` per stack.  Consumers (split schedulers' memory
hooks, :class:`~repro.metrics.trace.BlockTracer`,
:class:`~repro.obs.span.SpanBuilder`, tests) subscribe per event type.

Zero cost when disabled: publishers cache the live per-type subscriber
list (:meth:`StackBus.listeners`) and construct an event object only
when that list is non-empty, so an untraced stack pays one truthiness
check per potential event — never an allocation.  With no subscribers
the simulation is byte-identical to one with no bus at all, because
event *publication* is pure observation; nothing in the simulation
reads the bus.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Type


class SyscallEnter(NamedTuple):
    """A task entered a syscall (before the call body runs)."""

    time: float
    task: Any  # repro.proc.Task
    call: str
    info: Dict[str, Any]


class SyscallReturn(NamedTuple):
    """A syscall body completed and is returning to the caller."""

    time: float
    task: Any
    call: str
    info: Dict[str, Any]


class VfsOpen(NamedTuple):
    """A task opened (or created) a file through the VFS layer.

    Published by the descriptor-table layer, not the syscall hooks:
    handle bookkeeping is free of simulated cost, so this event exists
    for attribution (which tenant owns which fd) without perturbing
    scheduler hook sequences or fast-forward disturbance counters.
    """

    time: float
    task: Any
    path: str
    fd: int
    mode: str


class VfsClose(NamedTuple):
    """A task closed a VFS file descriptor.

    ``released`` is True when this close dropped the last live handle
    of an already-unlinked inode and its resources were freed (the
    POSIX deferred-free path).
    """

    time: float
    task: Any
    fd: int
    inode_id: int
    released: bool


class PageDirtied(NamedTuple):
    """A page-cache buffer was dirtied (or a dirty buffer re-modified).

    ``old_causes`` is the cause set the page carried before this write
    (empty on a clean->dirty transition) — the information the paper's
    memory-level ``buffer-dirty`` hook exposes.
    """

    time: float
    page: Any  # repro.cache.page.Page
    old_causes: Any  # repro.core.tags.CauseSet


class PageCleaned(NamedTuple):
    """Writeback for a dirty page completed and it stayed clean."""

    time: float
    page: Any


class PageFreed(NamedTuple):
    """A dirty page was deleted before writeback (its work vanished)."""

    time: float
    page: Any


class WritebackBatch(NamedTuple):
    """The writeback daemon handed one batch of dirty pages to the fs."""

    time: float
    npages: int
    reason: str  # "background", "expired", ...


class JournalTxnOpen(NamedTuple):
    """A new running transaction opened."""

    time: float
    tid: int


class JournalTxnCommit(NamedTuple):
    """A transaction finished committing (or aborted mid-commit)."""

    time: float
    tid: int
    start: float  # commit_start
    causes: Any  # CauseSet of the joiners the commit served
    nblocks: int  # journal blocks the commit wrote
    ordered_inodes: int  # inodes whose ordered data was entangled
    aborted: bool


class JournalCheckpoint(NamedTuple):
    """Committed metadata of one transaction was checkpointed in place."""

    time: float
    tid: int
    nblocks: int


class BlockAdd(NamedTuple):
    """A block request entered the block layer (elevator add)."""

    time: float
    request: Any  # repro.block.request.BlockRequest


class BlockDispatch(NamedTuple):
    """A dispatch slot pulled a request from the elevator to serve it.

    ``slot`` is the hardware-queue slot (tag) serving the request; it is
    None on a single-slot (depth-1) queue so depth-1 span exports stay
    byte-identical to the classic serial engine's.
    """

    time: float
    request: Any
    slot: Optional[int] = None


class BlockComplete(NamedTuple):
    """A block request completed (check ``request.failed`` for EIO)."""

    time: float
    request: Any


class DeviceStart(NamedTuple):
    """The device began one service attempt for a request."""

    time: float
    device: str
    op: str
    block: int
    nblocks: int
    attempt: int


class DeviceDone(NamedTuple):
    """A device accounted one successfully served operation."""

    time: float
    device: str
    op: str
    nblocks: int
    duration: float


class FaultInjected(NamedTuple):
    """The fault injector perturbed one device operation."""

    time: float
    stream: str
    kind: str  # "error", "stall", "slow"
    op: str


class HealthTransition(NamedTuple):
    """A device health monitor changed state (fail-slow detection).

    ``ratio`` is the measured degradation (EWMA service latency over
    the healthy baseline) at the instant of the transition.
    """

    time: float
    device: str
    old_state: str  # "healthy" / "degraded" / "failed"
    new_state: str
    ratio: float


#: Every event type the bus dispatches, in taxonomy order.
EVENT_TYPES = (
    SyscallEnter,
    SyscallReturn,
    VfsOpen,
    VfsClose,
    PageDirtied,
    PageCleaned,
    PageFreed,
    WritebackBatch,
    JournalTxnOpen,
    JournalTxnCommit,
    JournalCheckpoint,
    BlockAdd,
    BlockDispatch,
    BlockComplete,
    DeviceStart,
    DeviceDone,
    FaultInjected,
    HealthTransition,
)


class StackBus:
    """Typed multi-subscriber event bus for one simulated stack.

    Subscriber lists are mutated in place and never replaced, so
    publishers may cache :meth:`listeners` once and use its truthiness
    as the fast-path "anyone watching?" guard.  Dispatch order is
    subscription order (deterministic), and subscribing during dispatch
    takes effect from the *next* event.
    """

    __slots__ = ("_listeners", "published")

    def __init__(self):
        self._listeners: Dict[Type, List[Callable]] = {
            etype: [] for etype in EVENT_TYPES
        }
        #: Events dispatched to at least one subscriber (observability
        #: of the observability: reports surface this).
        self.published = 0

    def listeners(self, event_type: Type) -> List[Callable]:
        """The *live* subscriber list for one event type.

        The returned list object is stable for the lifetime of the bus;
        hot paths cache it and check its truthiness before building an
        event.
        """
        try:
            return self._listeners[event_type]
        except KeyError:
            raise ValueError(f"unknown event type {event_type!r}") from None

    def active(self, event_type: Type) -> bool:
        """True when *event_type* has at least one subscriber."""
        return bool(self.listeners(event_type))

    def subscribe(self, event_type: Type, fn: Callable) -> Callable[[], None]:
        """Add *fn* as a subscriber; returns an unsubscribe callable."""
        listeners = self.listeners(event_type)
        listeners.append(fn)

        def unsubscribe() -> None:
            try:
                listeners.remove(fn)
            except ValueError:
                pass  # already unsubscribed

        return unsubscribe

    def subscribe_all(self, fn: Callable) -> Callable[[], None]:
        """Subscribe *fn* to every event type; returns one unsubscriber."""
        unsubs = [self.subscribe(etype, fn) for etype in EVENT_TYPES]

        def unsubscribe() -> None:
            for unsub in unsubs:
                unsub()

        return unsubscribe

    def publish(self, event) -> None:
        """Dispatch *event* to its type's subscribers, in order."""
        self.published += 1
        for fn in self._listeners[event.__class__]:
            fn(event)

    def __repr__(self) -> str:
        live = sum(1 for subs in self._listeners.values() if subs)
        return f"<StackBus {live} active types, {self.published} published>"
