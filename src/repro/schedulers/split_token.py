"""Split-Token: token-bucket resource limiting in the split framework
(paper §5.3).

Where to throttle (§3.3):

- **system-call writes** (and other dirtying calls) block while the
  account's token balance is negative — keeping a throttled process
  from polluting the write buffer;
- **block-level reads** are held while the balance is negative —
  *below* the cache, so hits are never throttled;
- system-call reads are never throttled, and block writes are never
  throttled (journal entanglement).

How to charge (§3.2, two-stage):

- a **prompt** charge when a clean buffer is dirtied, from the
  memory-level model (file-offset randomness; allocation unknown);
  overwriting an already-dirty buffer is free — the I/O was already
  paid for (this is what SCS cannot know, the 837× "write-mem" case);
- a **revision** when the data reaches the block level: actual
  normalized cost (seeks, amplification, true layout) minus the
  prompt estimate, charged or refunded;
- deleted-before-writeback buffers are refunded via the buffer-free
  hook;
- reads and journal/metadata writes are charged at completion to the
  request's *cause set* — so delegated I/O bills the right accounts.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Tuple

from repro.block.request import BlockRequest
from repro.core.hooks import SplitScheduler
from repro.schedulers.tokens import BucketRegistry, TokenBucket


class SplitToken(SplitScheduler):
    """Token-bucket resource limits with two-stage split accounting."""

    name = "split-token"
    framework = "split"

    def __init__(self, prompt_charging: bool = True, block_revision: bool = True):
        """Both stages of cost estimation can be disabled for ablation:

        - ``prompt_charging=False`` drops the memory-level estimate
          (accounting becomes accurate but *late* — a burst dirties
          gigabytes before the first charge lands);
        - ``block_revision=False`` drops the block-level correction
          (accounting becomes prompt but *wrong* — randomness and
          amplification are never billed).
        """
        super().__init__()
        self.prompt_charging = prompt_charging
        self.block_revision = block_revision
        self.buckets: Optional[BucketRegistry] = None
        #: Prompt (memory-level) charges per page: (inode id, index) ->
        #: (buckets, the share charged to each).
        self._page_charges: Dict[Tuple[int, int], Tuple[Tuple[TokenBucket, ...], float]] = {}
        self._dispatch_fifo: deque = deque()
        #: Reads held because their account is out of tokens.
        self._held_reads: deque = deque()
        #: Nominal charges applied at read dispatch (revised later):
        #: request id -> {bucket: amount}.  Without this, a queue of
        #: held reads would all look affordable the instant the balance
        #: recovers and dispatch as one burst.
        self._read_charges: Dict[int, Dict[TokenBucket, float]] = {}
        self._kick_timer_armed = False
        self.os = None

    def attach_stack(self, os) -> None:
        self.os = os
        self.buckets = BucketRegistry(os.env)

    def set_limit(self, tasks, rate: float, cap: float = None) -> TokenBucket:
        """Throttle *tasks* to *rate* normalized bytes/second."""
        return self.buckets.set_limit(tasks, rate, cap)

    # ------------------------------------------------------------------
    # system-call level: block dirtying calls while out of tokens
    # ------------------------------------------------------------------

    THROTTLED_CALLS = ("write", "fsync", "creat", "mkdir")

    def syscall_entry(self, task, call, info):
        if call not in self.THROTTLED_CALLS:
            return None  # reads are never throttled above the cache
        bucket = self.buckets.by_pid.get(task.pid)
        if bucket is None or bucket.balance >= 0:
            return None
        return self._block_until_positive(bucket)

    def _block_until_positive(self, bucket: TokenBucket):
        while True:
            wait = bucket.time_until(0.0)
            if wait <= 0:
                return
            yield self.os.env.timeout(wait)

    # ------------------------------------------------------------------
    # memory level: prompt charging
    # ------------------------------------------------------------------

    def on_buffers_dirty(self, inode_id, first, stop, causes, old_causes) -> None:
        if old_causes.pids or not self.prompt_charging:
            return  # overwrite of dirty data: no new I/O work
        # Pages born together share their causes.  Each page is still
        # estimated and charged on its own, in file order: the estimate
        # tracks sequentiality, and one summed charge would round
        # differently.
        buckets = tuple(self.buckets.buckets_for_causes(causes).values())
        estimate = self.os.memory_cost_model.estimate
        charges = self._page_charges
        pids = len(causes)
        for index in range(first, stop):
            share = estimate(inode_id, index) / pids
            if buckets:
                for bucket in buckets:
                    bucket.charge(share)
                charges[inode_id, index] = (buckets, share)

    def on_buffer_free(self, inode_id, first, stop) -> None:
        """The work disappeared before writeback: refund the estimates,
        page by page in file order."""
        charges = self._page_charges
        for index in range(first, stop):
            buckets, share = charges.pop((inode_id, index), ((), 0.0))
            for bucket in buckets:
                bucket.refund(share)

    # ------------------------------------------------------------------
    # block level: hold broke readers, revise write costs
    # ------------------------------------------------------------------

    def add_request(self, request: BlockRequest) -> None:
        if request.is_read and self._broke(request):
            self._held_reads.append(request)
        else:
            self._dispatch_fifo.append(request)

    def _broke(self, request: BlockRequest) -> bool:
        """Is any throttled account behind this request out of tokens?"""
        buckets = self.buckets.buckets_for_causes(request.causes)
        return any(bucket.balance < 0 for bucket in buckets.values())

    def next_request(self) -> Optional[BlockRequest]:
        self._release_held_reads()
        while self._dispatch_fifo:
            request = self._dispatch_fifo.popleft()
            if request.is_read and self._broke(request):
                # The account went broke since this read was queued
                # (e.g. a burst of peers drained it): hold it now.
                self._held_reads.append(request)
                continue
            if request.is_read:
                self._charge_read_dispatch(request)
            return request
        if self._held_reads:
            self._arm_kick_timer()
        return None

    def _charge_read_dispatch(self, request: BlockRequest) -> None:
        """Nominal charge when a read leaves for the disk.

        The balance drops immediately, so the next held read of the
        same account stays held until tokens truly accrue; the
        completion revision converts the nominal charge into actual
        normalized cost.
        """
        buckets = self.buckets.buckets_for_causes(request.causes)
        if not buckets or not request.causes:
            return
        share = request.nbytes / len(request.causes)
        charged: Dict[TokenBucket, float] = {}
        # dict.fromkeys, not set(): insertion-ordered dedupe keeps the
        # charge sequence independent of PYTHONHASHSEED (SIM002).
        for bucket in dict.fromkeys(buckets.values()):
            pids_in_bucket = sum(1 for b in buckets.values() if b is bucket)
            amount = share * pids_in_bucket
            bucket.charge(amount)
            charged[bucket] = amount
        self._read_charges[request.id] = charged

    def _release_held_reads(self) -> None:
        still_held = deque()
        while self._held_reads:
            request = self._held_reads.popleft()
            if self._broke(request):
                still_held.append(request)
            else:
                self._dispatch_fifo.append(request)
        self._held_reads = still_held

    def _arm_kick_timer(self) -> None:
        """Re-kick the queue when the poorest waiting account recovers."""
        if self._kick_timer_armed or self.queue is None:
            return
        waits = []
        for request in self._held_reads:
            for bucket in self.buckets.buckets_for_causes(request.causes).values():
                waits.append(bucket.time_until(0.0))
        if not waits:
            return
        delay = max(min(waits), 1e-4)
        self._kick_timer_armed = True
        env = self.queue.env

        def timer():
            yield env.timeout(delay)
            self._kick_timer_armed = False
            self.queue.kick()

        env.process(timer(), name="split-token-kick")

    def request_completed(self, request: BlockRequest) -> None:
        # Wall-clock-union charge: equals complete - dispatch under
        # serial dispatch, but never double-bills overlapping service
        # when the multi-queue engine keeps several requests in flight.
        duration = self.service_charge(request)
        # Degraded-mode repricing: while the health monitor judges the
        # device sick, service intervals are inflated by the measured
        # slowdown through no fault of the tenant.  Dividing the charge
        # by that factor re-prices token contracts against degraded
        # throughput, so isolation sigma holds while the device limps.
        health = getattr(self.queue, "health", None)
        if health is not None:
            factor = health.billing_factor()
            if factor > 1.0:
                duration /= factor
        actual = self.os.disk_cost_model.normalized_bytes(request, duration)

        preliminary: Dict[TokenBucket, float] = {}
        charges = self._page_charges
        for run in request.runs:
            inode_id = run.inode_id
            for index in range(run.start, run.stop):
                buckets, share = charges.pop((inode_id, index), ((), 0.0))
                for bucket in buckets:
                    preliminary[bucket] = preliminary.get(bucket, 0.0) + share
        for bucket, amount in self._read_charges.pop(request.id, {}).items():
            preliminary[bucket] = preliminary.get(bucket, 0.0) + amount

        buckets = self.buckets.buckets_for_causes(request.causes)
        if buckets and request.causes and self.block_revision:
            share = actual / len(request.causes)
            # insertion-ordered dedupe — see _charge_read (SIM002)
            for bucket in dict.fromkeys(buckets.values()):
                pids_in_bucket = sum(1 for b in buckets.values() if b is bucket)
                target = share * pids_in_bucket
                delta = target - preliminary.get(bucket, 0.0)
                if delta >= 0:
                    bucket.charge(delta)
                else:
                    bucket.refund(-delta)
        if self._held_reads:
            self._arm_kick_timer()

    def has_work(self) -> bool:
        return bool(self._dispatch_fifo) or bool(self._held_reads)
