"""AFQ — Actually Fair Queuing (paper §5.1).

A two-level split scheduler providing priority-proportional fairness:

- **reads** are scheduled at the **block level** (below the cache, so
  hits stay free) by stride scheduling over per-task read queues;
- **writes, fsync, and metadata calls** are scheduled at the
  **system-call level**, *before* the filesystem can entangle them in a
  journal transaction.  Beneath the journal, block writes dispatch
  immediately — reordering there would invert priorities through
  commit dependencies;
- every completed block request charges the *responsible* tasks (via
  split tags) with its measured disk cost, so delegated writeback and
  journal I/O count against the right processes — the thing CFQ
  cannot do.

Idle-class tasks are only admitted at the syscall level when the rest
of the system is not using the storage stack (the ionice contract CFQ
cannot honor for buffered writes — Figure 1).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

from repro.block.request import BlockRequest
from repro.core.hooks import SplitScheduler
from repro.schedulers.stride import StrideScheduler
from repro.units import KB, MB


class _WaitingCall:
    """A syscall parked in the AFQ entry hook."""

    __slots__ = ("task", "call", "info", "event")

    def __init__(self, task, call, info, event):
        self.task = task
        self.call = call
        self.info = info
        self.event = event


class AFQ(SplitScheduler):
    """Actually Fair Queuing: stride scheduling at two split levels."""

    name = "afq"
    framework = "split"

    #: Fixed charge for metadata calls (journal descriptor + commit).
    METADATA_COST = 16 * KB
    #: Extra cost charged per fsync beyond the data it flushes.
    FSYNC_OVERHEAD = 16 * KB

    def __init__(
        self,
        write_window: int = 64 * MB,
        fsync_slots: int = 1,
        burst_per_ticket: int = 1 * MB,
        active_window: float = 0.5,
    ):
        super().__init__()
        self.write_window = write_window
        self.fsync_slots = fsync_slots
        #: How many bytes per ticket a client may run ahead of the
        #: stride virtual-time floor before its writes are paced.
        self.burst_per_ticket = burst_per_ticket
        self.active_window = active_window
        self.stride = StrideScheduler()
        #: Syscall level: per-pid FIFO of parked calls.
        self._waiting: Dict[int, deque] = {}
        self._fsyncs_inflight = 0
        self._last_admit: Dict[int, float] = {}
        self._repump_armed = False
        #: Idle-class gate: idle tasks run only after the rest of the
        #: system has been quiet for this long (the ionice contract).
        self.idle_grace = 0.02
        self._last_nonidle_activity = float("-inf")
        #: Block level: per-pid read queues + a write FIFO.
        self._read_queues: Dict[int, deque] = {}
        self._write_fifo: deque = deque()
        #: Read batching + anticipation: stick with one task's reads for
        #: a bounded budget, idling briefly for its next sequential
        #: request, so readers are not seek-thrashed by per-request
        #: switching (CFQ gets the same effect from time slices).
        self._read_batch_pid: Optional[int] = None
        self._read_batch_left = 0
        self.read_batch = 8
        self.read_idle_window = 0.004
        self._anticipating = False
        self._anticipation_id = 0
        self.os = None

    # ------------------------------------------------------------------
    # system-call level
    # ------------------------------------------------------------------

    def syscall_entry(self, task, call, info):
        if not task.idle_class:
            self._last_nonidle_activity = self.os.env.now
        if call == "read":
            return None  # reads are scheduled at the block level
        if call not in ("write", "fsync", "creat", "mkdir", "unlink"):
            return None
        return self._park(task, call, info)

    def _park(self, task, call, info):
        self.stride.reenter(task)
        event = self.os.env.event()
        waiting = self._waiting.setdefault(task.pid, deque())
        waiting.append(_WaitingCall(task, call, info, event))
        self._pump_syscalls()
        yield event

    def syscall_return(self, task, call, info) -> None:
        if call == "fsync":
            self._fsyncs_inflight -= 1
            self._pump_syscalls()

    def _pump_syscalls(self) -> None:
        """Admit parked calls in stride order while resources allow."""
        while True:
            candidates = [pid for pid, queue in self._waiting.items() if queue]
            admitted = False
            # Walk pids in pass order so an ineligible head doesn't block
            # eligible lower-priority work behind it.
            while candidates:
                pid = self.stride.min_pass_pid(candidates)
                if pid is None:
                    break
                candidates.remove(pid)
                queue = self._waiting[pid]
                call = queue[0]
                if not self._eligible(call):
                    continue
                queue.popleft()
                self._admit(call)
                admitted = True
                break
            if not admitted:
                if any(queue for queue in self._waiting.values()):
                    self._arm_repump()
                return

    def _eligible(self, call: _WaitingCall) -> bool:
        if call.task.idle_class and self._system_busy(call.task):
            return False
        if call.call == "write":
            # A single write larger than the window must still be
            # admittable (once the backlog has drained).
            nbytes = min(call.info.get("nbytes", 0), self.write_window // 2)
            if self.os.cache.dirty_bytes + nbytes > self.write_window:
                # Window full: have pdflush drain it (we rely on Linux
                # for writeback and merely pace admission — §4.2's
                # first option).
                self.os.writeback.request_flush(self.write_window // 2)
                return False
            # Stride pacing: a client may run ahead of the virtual-time
            # floor by at most burst_per_ticket bytes per ticket.  The
            # client AT the floor is always admissible — otherwise one
            # write larger than its whole allowance would deadlock it
            # (and stride scheduling must be work-conserving).
            state = self.stride.client(call.task)
            from repro.schedulers.stride import STRIDE1

            floor = self._active_floor()
            if state.pass_value <= floor + 1e-9:
                return True
            allowance = STRIDE1 * self.burst_per_ticket
            return state.pass_value + state.stride * nbytes <= floor + allowance
        if call.call == "fsync":
            return self._fsyncs_inflight < self.fsync_slots
        return True  # creat/mkdir/unlink

    def _active_floor(self) -> float:
        """Virtual time: min pass among parked or recently-served tasks."""
        now = self.os.env.now
        floor = None
        for pid, queue in self._waiting.items():
            if not queue:
                continue
            state = self.stride.client_by_pid(pid)
            if state is not None and (floor is None or state.pass_value < floor):
                floor = state.pass_value
        for pid, last in self._last_admit.items():
            if now - last > self.active_window:
                continue
            state = self.stride.client_by_pid(pid)
            if state is not None and (floor is None or state.pass_value < floor):
                floor = state.pass_value
        return floor if floor is not None else 0.0

    def _system_busy(self, idle_task) -> bool:
        """Anyone else using the storage stack? (ionice idle contract)

        "Busy" includes a grace window after the last non-idle
        activity, so an idle task cannot slip in through the
        sub-millisecond gaps between a reader's dependent requests.
        """
        if self.os.env.now - self._last_nonidle_activity < self.idle_grace:
            return True
        if self.queue is not None and any(
            r.submitter.pid != idle_task.pid for r in self.queue.outstanding
        ):
            return True
        for pid, queue in self._read_queues.items():
            if queue and pid != idle_task.pid:
                return True
        if self._write_fifo:
            return True
        for pid, queue in self._waiting.items():
            if queue and pid != idle_task.pid and not queue[0].task.idle_class:
                return True
        return False

    def _arm_repump(self) -> None:
        """Guarantee progress: re-evaluate parked calls shortly.

        The stride floor can be pinned by a recently-active task that
        went quiet; without a timer, parked writers would wait for the
        next block completion that may never come.
        """
        if self._repump_armed or self.os is None:
            return
        self._repump_armed = True
        env = self.os.env

        def timer():
            yield env.timeout(0.005)
            self._repump_armed = False
            self._pump_syscalls()

        env.process(timer(), name="afq-repump")

    def _admit(self, call: _WaitingCall) -> None:
        self._last_admit[call.task.pid] = self.os.env.now
        if call.call == "write":
            # Prompt charge at admission keeps dequeue order honest even
            # while the true disk cost is still unknown; the block-level
            # completion charge later corrects for actual expense.
            self.stride.client(call.task).charge(call.info.get("nbytes", 0))
        elif call.call == "fsync":
            self._fsyncs_inflight += 1
            # Prompt charge: an fsync costs roughly the data it flushes.
            state = self.stride.client(call.task)
            state.charge(call.info.get("dirty_bytes", 0) + self.FSYNC_OVERHEAD)
        elif call.call in ("creat", "mkdir", "unlink"):
            self.stride.client(call.task).charge(self.METADATA_COST)
        call.event.succeed()

    # ------------------------------------------------------------------
    # memory level
    # ------------------------------------------------------------------

    def on_buffer_dirty(self, page, old_causes) -> None:
        # Nothing to do promptly: write admission is paced at the
        # syscall level and true costs are charged at block completion.
        pass

    def on_buffer_free(self, page) -> None:
        pass

    # ------------------------------------------------------------------
    # block level
    # ------------------------------------------------------------------

    def add_request(self, request: BlockRequest) -> None:
        if request.is_read and not request.submitter.idle_class:
            self._last_nonidle_activity = self.queue.env.now
        if request.is_read:
            self._read_queues.setdefault(request.submitter.pid, deque()).append(request)
            if self._anticipating and request.submitter.pid == self._read_batch_pid:
                self._anticipating = False  # the awaited read arrived
        else:
            # Writes dispatch immediately: beneath the journal, holding
            # a low-priority block may stall a high-priority fsync.
            self._write_fifo.append(request)

    def next_request(self) -> Optional[BlockRequest]:
        if self._write_fifo:
            return self._write_fifo.popleft()
        pending = [pid for pid, queue in self._read_queues.items() if queue]
        if self._read_batch_pid is not None and self._read_batch_left > 0:
            if self._read_batch_pid in pending:
                self._read_batch_left -= 1
                return self._read_queues[self._read_batch_pid].popleft()
            if self._anticipating:
                return None  # idle briefly: its next read is likely near
        if not pending:
            return None
        for pid in pending:
            task = self.os.process_table.get(pid)
            if task is not None:
                self.stride.client(task)
        pid = self.stride.min_pass_pid(pending)
        if pid is None:
            pid = pending[0]
        self._read_batch_pid = pid
        self._read_batch_left = self.read_batch - 1
        return self._read_queues[pid].popleft()

    def request_completed(self, request: BlockRequest) -> None:
        """Charge measured disk cost to the true causes (split tags)."""
        if (
            request.is_read
            and request.submitter.pid == self._read_batch_pid
            and self._read_batch_left > 0
            and not self._read_queues.get(request.submitter.pid)
        ):
            self._start_anticipation()
        # Wall-clock-union charge (== complete - dispatch at depth 1) so
        # overlapping service under multi-queue dispatch bills each
        # device second to exactly one request.
        duration = self.service_charge(request)
        cost = self.os.disk_cost_model.normalized_bytes(request, duration)
        causes = list(request.causes)
        if causes:
            share = cost / len(causes)
            for pid in causes:
                task = self.os.process_table.get(pid)
                if task is None or task.kernel:
                    continue
                self.stride.client(task).charge(share)
        # Draining the disk may unblock parked writes (window space).
        self._pump_syscalls()

    def _start_anticipation(self) -> None:
        if self.queue is None:
            return
        self._anticipating = True
        self._anticipation_id += 1
        my_id = self._anticipation_id
        env = self.queue.env

        def timer():
            yield env.timeout(self.read_idle_window)
            if self._anticipation_id == my_id and self._anticipating:
                self._anticipating = False
                self._read_batch_left = 0  # give up the batch
                self.queue.kick()

        env.process(timer(), name="afq-idle-timer")

    def has_work(self) -> bool:
        return bool(self._write_fifo) or any(self._read_queues.values())
