"""SCS-Token: system-call-level token bucket (Craciunas et al.).

The whole scheduler lives above the filesystem: it intercepts read and
write system calls and charges their nominal byte counts.  That is
exactly why it fails (paper §2.3.3):

- it cannot tell how expensive an I/O pattern really is below the
  cache (random reads cost far more than their byte count; buffered
  writes often cost less), so it under-throttles seekers and
  over-throttles overwriters;
- its logic runs on *every* syscall, including cache hits, costing CPU
  (the 2.3× "read-mem" gap of Figure 14);
- it never sees journal or metadata amplification.

Following the authors' note, we model the one concession Craciunas et
al. made: the filesystem was modified to tell SCS which reads are
cache hits, so hits are not charged (they still pay the hook's CPU
cost).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.hooks import SchedulerHooks
from repro.schedulers.tokens import BucketRegistry, TokenBucket


#: CPU seconds of SCS bookkeeping per intercepted system call (the
#: framework/scheduler separation is poor, per the paper's LoC note).
SCS_HOOK_CPU = 4e-6


class SCSToken(SchedulerHooks):
    """System-call-level token bucket (the paper's SCS baseline)."""

    name = "scs-token"
    framework = "syscall"

    def __init__(self):
        self.buckets: BucketRegistry = None  # created on attach
        self.os = None

    def make_elevator(self):
        """SCS sits *above* the kernel; the stock elevator (CFQ) still
        runs at the block level underneath it, as on real Linux."""
        from repro.schedulers.cfq import CFQ

        return CFQ()

    def attach_stack(self, os) -> None:
        self.os = os
        self.buckets = BucketRegistry(os.env)

    def set_limit(self, tasks, rate: float, cap: float = None) -> TokenBucket:
        return self.buckets.set_limit(tasks, rate, cap)

    # -- syscall hooks ------------------------------------------------------

    def syscall_entry(self, task, call, info: Dict[str, Any]):
        if call not in ("read", "write", "fsync", "creat", "mkdir"):
            return None
        return self._throttle(task, call, info)

    def _throttle(self, task, call, info):
        # SCS bookkeeping burns CPU on every intercepted call.
        yield from self.os.cpu.consume(task, SCS_HOOK_CPU)

        bucket = self.buckets.bucket_for(task)
        if bucket is None:
            return

        cost = self._estimate_cost(call, info)
        if cost <= 0:
            return
        # Block until the bucket can pay, then charge.
        while True:
            wait = bucket.time_until(cost)
            if wait <= 0:
                break
            yield self.os.env.timeout(wait)
        bucket.charge(cost)

    def _estimate_cost(self, call: str, info: Dict[str, Any]) -> float:
        """Syscall-level cost guess: nominal bytes, nothing more.

        This is the crux: 4 KB of random read costs 4 KB of tokens even
        though the disk will spend ~10 ms on it, and a buffer overwrite
        costs its full size even though it causes no new disk I/O.
        """
        if call == "read":
            if self._fully_cached(info):
                return 0.0  # the authors' cache-hit concession
            return float(info.get("nbytes", 0))
        if call == "write":
            return float(info.get("nbytes", 0))
        if call in ("creat", "mkdir"):
            # SCS has no idea what a metadata op costs below the FS.
            return 0.0
        if call == "fsync":
            return 0.0
        return 0.0

    def _fully_cached(self, info: Dict[str, Any]) -> bool:
        from repro.units import PAGE_SIZE

        inode = info.get("inode")
        if inode is None:
            return False
        offset, nbytes = info.get("offset", 0), info.get("nbytes", 0)
        if nbytes <= 0:
            return True
        first = offset // PAGE_SIZE
        last = (offset + nbytes - 1) // PAGE_SIZE
        return self.os.cache.contains_range(inode.id, first, last + 1)
