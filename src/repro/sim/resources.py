"""Shared resources: a counting semaphore with a FIFO wait queue.

This follows the SimPy resource idiom: ``request()`` returns an event
that a process yields; releasing wakes waiters in FIFO order.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, List

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class Request(Event):
    """Pending request for one slot of a :class:`Resource`.

    Usable as a context manager::

        with resource.request() as req:
            yield req
            ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an un-granted request from the wait queue."""
        self.resource._cancel(self)


class Resource:
    """A semaphore with *capacity* slots and a FIFO wait queue."""

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: deque = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        return Request(self)

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)

    def _cancel(self, request: Request) -> None:
        if request in self.queue:
            self.queue.remove(request)

    def release(self, request: Request) -> None:
        """Free the slot held by *request* (no-op if never granted)."""
        if request in self.users:
            self.users.remove(request)
        elif request in self.queue:
            self.queue.remove(request)
            return
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()
