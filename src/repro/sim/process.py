"""Processes: generator coroutines driven by the event loop."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import Event, Interrupt, PENDING, URGENT

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class ProcessDied(Exception):
    """Raised when interrupting or joining a process that already ended."""


class Process(Event):
    """A running activity, wrapping a generator.

    The process yields events to wait on them.  The Process object is
    itself an event that triggers when the generator returns (with its
    return value) or raises (with the exception), so processes can wait
    on each other by yielding a Process.
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, env: "Environment", generator: Generator, name: Optional[str] = None):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None if it is
        #: about to run or has finished).
        self._target: Optional[Event] = None
        from repro.sim.events import Initialize

        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not exited."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process."""
        if not self.is_alive:
            raise ProcessDied(f"{self.name} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")

        # Unsubscribe from whatever we were waiting on so the original
        # event cannot resume this process a second time.  Processes
        # subscribe as themselves (Process.__call__ aliases _resume).
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self)
            except ValueError:
                pass
        self._target = None

        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        # Deliver before any other event at this instant.
        interrupt_event.callbacks = []
        interrupt_event.callbacks.append(self)
        self.env.schedule(interrupt_event, priority=URGENT)

    def _resume(self, event: Event) -> None:
        """Advance the generator with *event*'s outcome."""
        env = self.env
        env.active_process = self
        generator = self._generator

        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event.defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                self._target = None
                env.active_process = None
                self.succeed(getattr(exc, "value", None))
                return
            except BaseException as exc:
                self._target = None
                env.active_process = None
                self._ok = False
                self._value = exc
                env.schedule(self)
                return

            if not isinstance(next_event, Event):
                self._generator.throw(
                    TypeError(f"process {self.name} yielded a non-event: {next_event!r}")
                )
                continue

            callbacks = next_event.callbacks
            if callbacks is not None:
                # Event not yet processed: subscribe and go to sleep.
                # The process itself is the callback — no bound-method
                # allocation, and the run loop's inlined resume path
                # recognises it by type.
                callbacks.append(self)
                self._target = next_event
                break

            # Event already processed: continue immediately with its value.
            event = next_event

        env.active_process = None

    #: Calling a process delivers an event outcome to it, so a Process
    #: can sit directly in an event's callback list.
    __call__ = _resume

    def __repr__(self) -> str:
        return f"<Process {self.name} alive={self.is_alive}>"
