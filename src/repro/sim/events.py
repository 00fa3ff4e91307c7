"""Event primitives for the simulation kernel.

Events move through three states: *pending* (created, not yet scheduled),
*triggered* (scheduled onto the environment's queue with a value), and
*processed* (callbacks have run).  Processes wait on events by yielding
them; the process is resumed with the event's value, or the event's
exception is thrown into it if the event failed.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Environment

#: Queue priorities: urgent events (process initialisation, interrupts)
#: run before normal events scheduled for the same instant.  Defined
#: here (rather than in :mod:`repro.sim.core`, which re-exports them)
#: so the fused scheduling fast paths below can use them without an
#: import cycle.
URGENT = 0
NORMAL = 1


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:
        return f"Interrupt({self.cause!r})"


#: Sentinel meaning "this event has not been given a value yet".
PENDING = object()


class Event:
    """A happening at a point in simulated time.

    Callbacks are ``f(event)`` callables run when the environment
    processes the event.  ``succeed``/``fail`` trigger the event; a
    triggered event is immutable.

    Events are the single most-allocated object in the simulation, so
    the class is slotted and the callback list is recycled through the
    environment's pool (see :attr:`Environment._cb_pool`) instead of
    being allocated fresh per event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment"):
        self.env = env
        pool = env._cb_pool
        self.callbacks: Optional[List[Callable[["Event"], None]]] = (
            pool.pop() if pool else []
        )
        self._value: Any = PENDING
        self._ok: bool = True
        #: Set when a failed event's exception was delivered somewhere.
        self.defused: bool = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise RuntimeError(f"value of {self!r} is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Fused fast path for env.schedule(self): succeed() dominates
        # event scheduling, so skip the method call and insert directly.
        # simlint: disable=SIM005  (kernel-internal fused scheduling)
        env = self.env
        env._eid += 1
        heappush(env._queue, (env.now, NORMAL, env._eid, self))
        # simlint: enable=SIM005
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def cancel(self) -> None:
        """Lazily discard this event: nobody wants its callbacks any more.

        The event keeps its slot in the environment's heap, but the run
        loop sweeps it on pop without executing callbacks (cheaper than
        eagerly removing it, which would need an O(n) heap search).  Only
        cancel an event you know has no live subscribers — e.g. the
        losing timer of an ``AnyOf(timer, kick)`` race.  A failed event
        is defused by cancellation, never raised.
        """
        self.defused = True
        self.callbacks = None

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event.

        Used as a callback to chain events together.
        """
        if event._ok:
            self.succeed(event._value)
        else:
            event.defused = True
            self.fail(event._value)

    def __and__(self, other: "Event") -> "Condition":
        """``a & b`` waits for both events."""
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        """``a | b`` waits for whichever event comes first."""
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed delay.

    ``yield env.timeout(d)`` is the single hottest operation in the
    simulation, so construction is fully fused: no ``super().__init__``
    or ``env.schedule`` calls, a pooled callback list, and one direct
    heap push.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        pool = env._cb_pool
        self.callbacks = pool.pop() if pool else []
        self.defused = False
        self.delay = delay
        self._ok = True
        self._value = value
        # simlint: disable=SIM005  (kernel-internal fused scheduling)
        env._eid += 1
        heappush(env._queue, (env.now + delay, NORMAL, env._eid, self))
        # simlint: enable=SIM005

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Immediately-scheduled event that starts a new process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: Any):
        self.env = env
        pool = env._cb_pool
        self.callbacks = pool.pop() if pool else []
        # The process object itself is the callback (Process.__call__
        # aliases _resume): the run loop recognises it by type and
        # resumes the generator without the callback indirection.
        self.callbacks.append(process)
        self.defused = False
        self._ok = True
        self._value = None
        # simlint: disable=SIM005  (kernel-internal fused scheduling)
        env._eid += 1
        heappush(env._queue, (env.now, URGENT, env._eid, self))
        # simlint: enable=SIM005


class ConditionValue:
    """Mapping of the events that triggered a condition to their values."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]):
        self.events = list(events)

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(str(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def todict(self) -> dict:
        return {event: event._value for event in self.events}

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Composite event that triggers once *evaluate* says it should.

    ``evaluate(events, count)`` receives the watched events and the number
    that have triggered so far.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ):
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("events from different environments")

        if not self._events:
            self.succeed(ConditionValue([]))
            return

        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defused = True
            return
        self._count += 1
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            # An event is "done" once its callbacks have been consumed;
            # the one being processed right now also qualifies.
            self.succeed(ConditionValue(e for e in self._events if e.callbacks is None))

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Triggers when all of the given events have triggered.

    Waiting on one pending event (a single block request's ``done``) is
    the common case, so it skips the generic bookkeeping: one callback
    on that event settles the condition exactly as :meth:`_check` would,
    at the same point in the event order.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        if type(events) is list and len(events) == 1:
            event = events[0]
            callbacks = event.callbacks
            if callbacks is not None and event.env is env:
                self.env = env
                pool = env._cb_pool
                self.callbacks = pool.pop() if pool else []
                self._value = PENDING
                self._ok = True
                self.defused = False
                self._evaluate = Condition.all_events
                self._events = [event]
                self._count = 0
                callbacks.append(self._check_one)
                return
        super().__init__(env, Condition.all_events, events)

    def _check_one(self, event: Event) -> None:
        """:meth:`_check` for a condition on the single *event*."""
        if self._value is not PENDING:
            if not event._ok:
                event.defused = True
            return
        self._count = 1
        if event._ok:
            self.succeed(ConditionValue((event,)))
        else:
            event.defused = True
            self.fail(event._value)


class AnyOf(Condition):
    """Triggers when any of the given events has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.any_events, events)
