"""The simulation environment: virtual clock and event queue."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, List, Optional, Tuple

from repro.sim.events import Event, NORMAL, Timeout, URGENT
from repro.sim.process import Process

#: Processed callback lists are recycled through a bounded per-
#: environment pool; beyond this many spares, lists are simply dropped.
_CB_POOL_MAX = 1024


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run`."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class EmptySchedule(Exception):
    """Raised when the event queue runs dry before ``until``."""


class Environment:
    """Execution environment for a simulation.

    Time advances only as events are processed; the clock unit is the
    *second* throughout the storage simulation.

    Every pending event is one ``(time, priority, eid, event)`` entry
    in the binary heap :attr:`_queue`; ``eid`` is unique, so dispatch
    follows one total order and same-instant events run in
    ``(priority, eid)`` order.
    """

    __slots__ = (
        "now",
        "_queue",
        "_eid",
        "_cb_pool",
        "active_process",
        "_halted",
        "_halt_reason",
    )

    def __init__(self, initial_time: float = 0.0):
        #: Current simulated time in seconds (read-only outside the kernel).
        self.now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        #: Recycled callback lists (see Event.__init__): the dispatch
        #: loop returns each processed event's emptied list here so the
        #: next event allocates nothing.
        self._cb_pool: List[list] = []
        self.active_process: Optional[Process] = None
        self._halted = False
        self._halt_reason: Any = None

    @property
    def halted(self) -> bool:
        """True once :meth:`halt` was called (e.g. a simulated power loss)."""
        return self._halted

    def halt(self, reason: Any = None) -> None:
        """Stop the world permanently (a power cut, not a pause).

        Pending events are abandoned; every subsequent :meth:`run` call
        returns *reason* immediately.  Crash-recovery code inspects the
        frozen state afterwards.
        """
        self._halted = True
        self._halt_reason = reason

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Put *event* on the queue to be processed after *delay*."""
        self._eid += 1
        heappush(self._queue, (self.now + delay, priority, self._eid, event))

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after *delay* seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process running *generator*."""
        return Process(self, generator, name=name)

    def _pop(self) -> Tuple[float, int, int, Event]:
        """Remove and return the smallest pending ``(time, priority, eid)``
        entry.  :meth:`run` inlines this pop in its hot loop."""
        try:
            return heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None

    def step(self) -> None:
        """Process the next event; advance the clock to its time.

        The debug-friendly single-step API: :meth:`run` inlines the
        equivalent of this loop for speed, so semantic changes here
        must be mirrored there (and in :meth:`_dispatch`).
        """
        entry = self._pop()
        self.now = entry[0]
        self._dispatch(entry)

    def _dispatch(self, entry: Tuple[float, int, int, Event]) -> None:
        """Run one popped entry's callbacks (the :meth:`step` path).

        Receives the full ``(time, priority, eid, event)`` queue entry —
        not just the event — so subclasses (the runtime sanitizer) can
        observe the scheduling key of everything dispatched.  Mirrors
        the fast path inlined in :meth:`run` — keep the two in sync.
        Events whose callbacks are gone (``cancel()``) are swept without
        processing; a single waiting :class:`Process` is resumed without
        the generic callback indirection.
        """
        event = entry[3]
        callbacks = event.callbacks
        if callbacks is None:
            return  # lazily-swept cancelled event
        event.callbacks = None
        if len(callbacks) == 1:
            cb = callbacks[0]
            if type(cb) is Process and event._ok:
                # Inlined Process._resume fast path: advance the
                # generator and subscribe it to whatever it yields.
                self.active_process = cb
                try:
                    nev = cb._generator.send(event._value)
                except StopIteration as exc:
                    cb._target = None
                    self.active_process = None
                    cb.succeed(exc.value)
                except BaseException as exc:
                    cb._target = None
                    self.active_process = None
                    cb._ok = False
                    cb._value = exc
                    self.schedule(cb)
                else:
                    try:
                        ncbs = nev.callbacks
                    except AttributeError:
                        cb._generator.throw(
                            TypeError(f"process {cb.name} yielded a non-event: {nev!r}")
                        )
                        cb._resume(event)
                    else:
                        if ncbs is not None:
                            ncbs.append(cb)
                            cb._target = nev
                            self.active_process = None
                        else:
                            # Already-processed target: continue inline.
                            cb._resume(nev)
                callbacks.clear()
                if len(self._cb_pool) < _CB_POOL_MAX:
                    self._cb_pool.append(callbacks)
                return
            cb(event)
        else:
            for callback in callbacks:
                callback(event)

        if event._ok or event.defused:
            callbacks.clear()
            if len(self._cb_pool) < _CB_POOL_MAX:
                self._cb_pool.append(callbacks)
        else:
            # An untended failure: crash the simulation loudly rather
            # than silently dropping the error (Zen: errors should never
            # pass silently).
            raise event._value

    #: Sentinel from :meth:`_resolve_until`: the run target is already
    #: satisfied and run() should return immediately.
    _ALREADY_DONE = object()

    def _resolve_until(self, until: Any) -> Any:
        """Normalize run()'s *until* argument (shared with subclasses).

        Returns the armed until-Event, None (run to exhaustion), or a
        ``(_ALREADY_DONE, value)`` pair when there is nothing to do.
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at < self.now:
                raise ValueError(f"until ({at}) is in the past (now={self.now})")
            if at == self.now:
                return (self._ALREADY_DONE, None)  # zero-length advance
            until = Event(self)
            until._ok = True
            until._value = None
            self.schedule(until, priority=URGENT, delay=at - self.now)
        if isinstance(until, Event):
            if until.callbacks is None:
                return (self._ALREADY_DONE, until._value)
            until.callbacks.append(_stop_simulation)
        return until

    def run(self, until: Any = None) -> Any:
        """Run until *until* (a time, an event, or exhaustion).

        - ``until`` is None: run until no events remain.
        - ``until`` is a number: run until the clock reaches it; a
          target equal to the current time is a no-op.
        - ``until`` is an Event: run until it triggers; returns its value.

        A halted environment (see :meth:`halt`) returns immediately.
        """
        if self._halted:
            return self._halt_reason
        until = self._resolve_until(until)
        if isinstance(until, tuple) and until[0] is self._ALREADY_DONE:
            return until[1]

        # The hot dispatch loop: _pop() and _dispatch() inlined with the
        # queue, pop, callback-list pool, and hot globals hoisted into
        # locals.  One entry per iteration, always the smallest pending
        # (time, priority, eid).
        queue = self._queue
        pool = self._cb_pool
        pool_max = _CB_POOL_MAX
        process_type = Process
        pop = heappop
        try:
            while not self._halted:
                if not queue:
                    raise EmptySchedule()
                entry = pop(queue)
                self.now = entry[0]

                event = entry[3]
                callbacks = event.callbacks
                if callbacks is None:
                    continue  # lazily-swept cancelled event
                event.callbacks = None
                if len(callbacks) == 1:
                    # The overwhelmingly common case: one waiter.
                    cb = callbacks[0]
                    if type(cb) is process_type and event._ok:
                        # Inlined Process._resume (see _dispatch).
                        self.active_process = cb
                        try:
                            nev = cb._generator.send(event._value)
                        except StopIteration as exc:
                            cb._target = None
                            self.active_process = None
                            cb.succeed(exc.value)
                        except BaseException as exc:
                            cb._target = None
                            self.active_process = None
                            cb._ok = False
                            cb._value = exc
                            self.schedule(cb)
                        else:
                            try:
                                ncbs = nev.callbacks
                            except AttributeError:
                                cb._generator.throw(
                                    TypeError(
                                        f"process {cb.name} yielded a non-event: {nev!r}"
                                    )
                                )
                                cb._resume(event)
                            else:
                                if ncbs is not None:
                                    ncbs.append(cb)
                                    cb._target = nev
                                    self.active_process = None
                                else:
                                    # Already-processed target: continue.
                                    cb._resume(nev)
                        callbacks.clear()
                        if len(pool) < pool_max:
                            pool.append(callbacks)
                        continue
                    cb(event)
                else:
                    for callback in callbacks:
                        callback(event)

                if event._ok or event.defused:
                    callbacks.clear()
                    if len(pool) < pool_max:
                        pool.append(callbacks)
                else:
                    raise event._value
            return self._halt_reason
        except StopSimulation as stop:
            return stop.value
        except EmptySchedule:
            if isinstance(until, Event) and not until.triggered:
                raise RuntimeError("no scheduled events left but until event was not triggered")
            return None


def _stop_simulation(event: Event) -> None:
    if not event._ok:
        # Running until a failed event (e.g. a crashed process):
        # surface the error instead of returning it as a value.
        event.defused = True
        raise event._value
    raise StopSimulation(event._value)
