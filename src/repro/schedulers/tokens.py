"""Token buckets for resource-limit schedulers.

Tokens represent *normalized bytes* (sequential-equivalent I/O).  A
bucket accrues tokens continuously at its configured rate, up to a
burst cap; balances may go negative (costs are often only known after
the I/O completes), in which case further I/O is blocked until the
balance recovers.

Several tasks may share one bucket (a throttling *account*), as in the
paper's multi-thread and HDFS experiments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.proc import Task
    from repro.sim.core import Environment


class TokenBucket:
    """One throttling account."""

    def __init__(self, env: "Environment", rate: float, cap: Optional[float] = None):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.env = env
        self.rate = float(rate)
        self.cap = float(cap) if cap is not None else max(self.rate, 1.0)
        self._balance = self.cap
        self._last_update = env.now
        self.charged_total = 0.0
        #: Cumulative refunds (freed-before-writeback pages, block-level
        #: revisions downward).  ``charged_total - refunded_total`` is
        #: the account's net normalized-byte consumption — the quantity
        #: the sharded runs aggregate into a cluster-wide token ledger.
        self.refunded_total = 0.0

    @property
    def balance(self) -> float:
        self._accrue()
        return self._balance

    def _accrue(self) -> None:
        now = self.env.now
        if now > self._last_update:
            self._balance = min(self.cap, self._balance + self.rate * (now - self._last_update))
            self._last_update = now

    def charge(self, amount: float) -> None:
        """Deduct *amount* tokens; the balance may go negative."""
        self._accrue()
        self._balance -= amount
        if amount > 0:
            self.charged_total += amount

    def refund(self, amount: float) -> None:
        self._accrue()
        self._balance = min(self.cap, self._balance + amount)
        if amount > 0:
            self.refunded_total += amount

    def time_until(self, level: float) -> float:
        """Seconds until the balance reaches *level* (0 if already).

        Waits are clamped to at least a microsecond so float rounding
        in the accrual can never produce a zero-length sleep loop.
        """
        deficit = level - self.balance
        if deficit <= 1e-9:
            return 0.0
        return max(deficit / self.rate, 1e-6)


class BucketRegistry:
    """Maps tasks to their (possibly shared) buckets."""

    def __init__(self, env: "Environment"):
        self.env = env
        self._by_pid: Dict[int, TokenBucket] = {}

    def set_limit(self, tasks, rate: float, cap: Optional[float] = None) -> TokenBucket:
        """Throttle *tasks* (a Task or iterable) under one shared bucket."""
        from repro.proc import Task as TaskType

        if isinstance(tasks, TaskType):
            tasks = [tasks]
        bucket = TokenBucket(self.env, rate, cap)
        for task in tasks:
            self._by_pid[task.pid] = bucket
        return bucket

    def bucket_for(self, task: "Task") -> Optional[TokenBucket]:
        return self._by_pid.get(task.pid)

    def buckets_for_causes(self, causes) -> Dict[int, TokenBucket]:
        """Buckets of the throttled pids inside a cause set."""
        found = {}
        for pid in causes:
            bucket = self._by_pid.get(pid)
            if bucket is not None:
                found[pid] = bucket
        return found
