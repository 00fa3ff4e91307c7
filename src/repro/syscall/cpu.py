"""A simple CPU model: N cores shared by every task.

I/O scheduling cannot isolate CPU-bound interference (paper Figure 15:
memory-bound and spin-loop B threads slow A despite perfect I/O
throttling); modelling cores lets that effect emerge.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

from repro.sim.events import Event
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
    still waits for its grant to be processed.
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

    def consume(self, task: "Task", seconds: float):
        """Generator: occupy one core for *seconds* of compute."""
        if seconds <= 0:
            return
        grant = Event(self.env)
        if self.busy_cores < self.cores:
            self.busy_cores += 1
            grant.succeed()
        else:
            self.waiters.append(grant)
        try:
            yield grant
            yield self.env.timeout(seconds)
            self.busy_time += seconds
        finally:
            if not grant.triggered:
                # Interrupted while queued: withdraw, holding no core.
                self.waiters.remove(grant)
            elif self.waiters:
                # Hand the core straight to the oldest waiter.
                self.waiters.popleft().succeed()
            else:
                self.busy_cores -= 1

    def syscall_cost(self, nbytes: int = 0) -> float:
        """CPU seconds for a syscall moving *nbytes* through the cache."""
        return SYSCALL_OVERHEAD + nbytes / COPY_BANDWIDTH
