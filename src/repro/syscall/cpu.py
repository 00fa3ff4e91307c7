"""A simple CPU model: N cores shared by every task.

I/O scheduling cannot isolate CPU-bound interference (paper Figure 15:
memory-bound and spin-loop B threads slow A despite perfect I/O
throttling); modelling cores lets that effect emerge.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

from repro.sim.events import Event, Timeout
from repro.units import GB

if TYPE_CHECKING:  # pragma: no cover
    from repro.proc import Task
    from repro.sim.core import Environment

#: Fixed kernel-entry cost per system call.
SYSCALL_OVERHEAD = 2e-6
#: Single-core memory copy bandwidth (page-cache copies).
COPY_BANDWIDTH = 3 * GB


class CPU:
    """A pool of cores; tasks consume core-time via :meth:`consume`.

    Cores are granted in FIFO order.  A grant is an event succeeded
    when the core is handed over, so a task that finds a free core
    still waits for its grant to be processed.  :meth:`consume` is
    :meth:`acquire`, the grant, a timeout and :meth:`release`; the
    OS's read and write run the same four steps in one frame of their
    own (``OS._transfer``).
    """

    def __init__(self, env: "Environment", cores: int = 8):
        if cores <= 0:
            raise ValueError("need at least one core")
        self.env = env
        self.cores = cores
        #: Cores held by a task right now.
        self.busy_cores = 0
        #: Grant events of tasks waiting for a core, oldest first.
        self.waiters: Deque[Event] = deque()
        self.busy_time = 0.0

    def acquire(self) -> Event:
        """Ask for a core: the grant event, succeeded at once when a core
        is free, else queued behind the earlier askers.  Every grant is
        given back with :meth:`release`."""
        if self.busy_cores < self.cores:
            self.busy_cores += 1
            # A zero-delay timeout is an event succeeded now: the same
            # queue entry and eid as Event + succeed, in one call.
            return Timeout(self.env, 0)
        grant = Event(self.env)
        self.waiters.append(grant)
        return grant

    def release(self, grant: Event, seconds: float = 0.0) -> None:
        """Give back the core *grant* asked for, after *seconds* of
        finished compute (0 when its holder was interrupted first).

        The core goes straight to the oldest waiter, or back to the
        pool; a grant still queued (interrupted while waiting) is
        withdrawn, holding no core.
        """
        if seconds:
            self.busy_time += seconds
        elif not grant.triggered:
            self.waiters.remove(grant)
            return
        if self.waiters:
            self.waiters.popleft().succeed()
        else:
            self.busy_cores -= 1

    def consume(self, task: "Task", seconds: float):
        """Generator: occupy one core for *seconds* of compute."""
        if seconds <= 0:
            return
        grant = self.acquire()
        done = 0.0
        try:
            yield grant
            yield Timeout(self.env, seconds)
            done = seconds
        finally:
            self.release(grant, done)

    def syscall_cost(self, nbytes: int = 0) -> float:
        """CPU seconds for a syscall moving *nbytes* through the cache."""
        return SYSCALL_OVERHEAD + nbytes / COPY_BANDWIDTH
