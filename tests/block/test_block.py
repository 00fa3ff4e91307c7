"""Tests for block requests and the dispatch queue."""

import pytest

from repro.block import BlockQueue, BlockRequest
from repro.block.request import READ, WRITE
from repro.core.tags import CauseSet
from repro.devices import SSD
from repro.obs.bus import BlockComplete
from repro.proc import ProcessTable, Task
from repro.schedulers.noop import Noop
from repro.sim import Environment
from repro.units import PAGE_SIZE


def make_stack(scheduler=None):
    env = Environment()
    table = ProcessTable()
    queue = BlockQueue(env, SSD(), scheduler or Noop(), process_table=table)
    return env, table, queue


def test_request_validates_op_and_size():
    task = Task("t")
    with pytest.raises(ValueError):
        BlockRequest("append", 0, 1, task)
    with pytest.raises(ValueError):
        BlockRequest(READ, 0, 0, task)


def test_request_defaults_causes_to_submitter():
    task = Task("t")
    request = BlockRequest(READ, 0, 1, task)
    assert request.causes == CauseSet([task.pid])


def test_request_keeps_explicit_causes():
    submitter = Task("pdflush", kernel=True)
    causes = CauseSet([101, 102])
    request = BlockRequest(WRITE, 0, 1, submitter, causes=causes)
    assert request.causes == causes
    assert request.submitter is submitter


def test_request_byte_and_block_accessors():
    request = BlockRequest(READ, 10, 4, Task("t"))
    assert request.nbytes == 4 * PAGE_SIZE
    assert request.end_block == 14
    assert request.is_read and not request.is_write


def test_submit_completes_request():
    env, table, queue = make_stack()
    task = table.spawn("reader")

    def proc():
        request = BlockRequest(READ, 0, 8, task)
        yield queue.submit(request)
        return request

    p = env.process(proc())
    env.run()
    request = p.value
    assert request.complete_time is not None
    assert request.latency > 0
    assert queue.completed == 1


def test_requests_serialize_on_device():
    env, table, queue = make_stack()
    task = table.spawn("t")
    done_times = []

    def proc():
        first = BlockRequest(READ, 0, 256, task)
        second = BlockRequest(READ, 1000, 256, task)
        e1, e2 = queue.submit(first), queue.submit(second)
        yield e1
        done_times.append(env.now)
        yield e2
        done_times.append(env.now)

    env.process(proc())
    env.run()
    assert done_times[1] > done_times[0] > 0


def test_completion_accounting_splits_among_causes():
    env, table, queue = make_stack()
    pdflush = table.spawn("pdflush", kernel=True)
    a, b = table.spawn("a"), table.spawn("b")

    def proc():
        request = BlockRequest(WRITE, 0, 2, pdflush, causes=CauseSet([a.pid, b.pid]))
        yield queue.submit(request)

    env.process(proc())
    env.run()
    assert a.bytes_written == PAGE_SIZE
    assert b.bytes_written == PAGE_SIZE
    assert pdflush.bytes_written == 0


def test_completion_listener_invoked():
    env, table, queue = make_stack()
    task = table.spawn("t")
    seen = []
    queue.bus.subscribe(BlockComplete, lambda e: seen.append(e.request))

    def proc():
        yield queue.submit(BlockRequest(READ, 0, 1, task))

    env.process(proc())
    env.run()
    assert len(seen) == 1
    assert seen[0].is_read


def test_scheduler_sees_lifecycle():
    class Spy(Noop):
        def __init__(self):
            super().__init__()
            self.added, self.completed_reqs = [], []

        def add_request(self, request):
            self.added.append(request)
            super().add_request(request)

        def request_completed(self, request):
            self.completed_reqs.append(request)

    spy = Spy()
    env, table, queue = make_stack(spy)
    task = table.spawn("t")

    def proc():
        yield queue.submit(BlockRequest(READ, 0, 1, task))

    env.process(proc())
    env.run()
    assert len(spy.added) == 1
    assert len(spy.completed_reqs) == 1


def test_kick_wakes_idle_dispatcher():
    """A scheduler may hold requests; kick() must re-poll it."""

    class Gated(Noop):
        def __init__(self):
            super().__init__()
            self.gate_open = False

        def next_request(self):
            if not self.gate_open:
                return None
            return super().next_request()

    gated = Gated()
    env, table, queue = make_stack(gated)
    task = table.spawn("t")
    finish = []

    def proc():
        yield queue.submit(BlockRequest(READ, 0, 1, task))
        finish.append(env.now)

    def opener():
        yield env.timeout(5)
        gated.gate_open = True
        queue.kick()

    env.process(proc())
    env.process(opener())
    env.run()
    assert finish and finish[0] >= 5


def test_kick_arriving_during_poll_is_not_lost():
    """A kick() racing with next_request() must re-poll, not deadlock.

    The scheduler below kicks mid-poll while returning None — modelling
    a submit that lands while the dispatcher is already awake and has
    consumed its wake event.  Without the pending-kick flag that kick
    hits the stale (already-triggered) event and the dispatcher sleeps
    forever with a ready request queued.
    """

    class MidPollKicker(Noop):
        def __init__(self):
            super().__init__()
            self.queue = None
            self.suppress_once = True

        def next_request(self):
            if self.suppress_once and self._fifo:
                self.suppress_once = False
                self.queue.kick()  # the racing submit's kick
                return None  # pretend the request isn't visible yet
            return super().next_request()

    sched = MidPollKicker()
    env, table, queue = make_stack(sched)
    sched.queue = queue
    task = table.spawn("t")
    done = []

    def proc():
        yield queue.submit(BlockRequest(READ, 0, 1, task))
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done  # the dispatcher re-polled instead of sleeping forever
    assert queue.completed == 1


def test_accounting_skips_unknown_pids():
    """Causes can outlive their tasks (e.g. exited processes)."""
    env, table, queue = make_stack()
    submitter = table.spawn("pdflush", kernel=True)

    def proc():
        request = BlockRequest(WRITE, 0, 2, submitter, causes=CauseSet([99999]))
        yield queue.submit(request)

    env.process(proc())
    env.run()
    assert queue.completed == 1  # no crash on the unknown pid


def test_queue_counters():
    env, table, queue = make_stack()
    task = table.spawn("t")

    def proc():
        events = [queue.submit(BlockRequest(READ, i * 10, 1, task)) for i in range(5)]
        for e in events:
            yield e

    env.process(proc())
    env.run()
    assert queue.submitted == queue.completed == 5
    assert not queue.outstanding
