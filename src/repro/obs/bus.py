"""The cross-layer stack event bus and its typed event vocabulary.

The layers of the simulated stack — syscall facade, journal, block
queue, device models, fault injector — publish their lifecycle
transitions as *typed events* on one shared :class:`StackBus` per
stack.  Consumers (:class:`~repro.obs.span.SpanBuilder`, the health
monitor, tests) subscribe per event type.  The split framework's hooks
are not among them: a scheduler's syscall, memory and block hooks are
direct calls at all three levels, so the bus only observes.

Zero cost when disabled: publishers cache the live per-type subscriber
list (:meth:`StackBus.listeners`) and construct an event object only
when that list is non-empty, so an untraced stack pays one truthiness
check per potential event — never an allocation.  With no subscribers
the simulation is byte-identical to one with no bus at all, because
event *publication* is pure observation.  One consumer is read back:
under hedged dispatch the block queue takes its hedge deadline from the
:class:`~repro.health.HealthMonitor`, which learns service latencies
from ``DeviceDone`` events, so a hedged stack's results depend on that
subscription.  Nothing else in the simulation reads the bus.
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


class JournalTxnCommit(NamedTuple):
    """A transaction finished committing (or aborted mid-commit)."""

    time: float
    tid: int
    start: float  # commit_start
    causes: Any  # CauseSet of the joiners the commit served
    nblocks: int  # journal blocks the commit wrote
    ordered_inodes: int  # inodes whose ordered data was entangled
    aborted: bool


class JournalCommitRecord(NamedTuple):
    """A commit record became durable: the snapshot recovery checks.

    The metadata blocks the transaction journalled and the data blocks
    that metadata references (its ordered inodes' whole block maps).
    The journal builds it only while something subscribes.
    """

    time: float
    tid: int
    metadata_blocks: frozenset
    data_blocks: frozenset


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
    JournalTxnCommit,
    JournalCommitRecord,
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

    def publish(self, event) -> None:
        """Dispatch *event* to its type's subscribers, in order."""
        self.published += 1
        for fn in self._listeners[event.__class__]:
            fn(event)

    def __repr__(self) -> str:
        live = sum(1 for subs in self._listeners.values() if subs)
        return f"<StackBus {live} active types, {self.published} published>"
