"""Multi-queue dispatch engine: slots, overlap, and accounting.

The blk-mq refactor replaced the single in-flight slot with up to
``queue_depth`` concurrent dispatch slots (capped at the device's
channel count).  These tests pin the engine's contract: SSDs overlap,
HDDs stay serial, kicks are never lost while every slot is busy, and
the per-slot counters decompose the queue-wide totals exactly.
"""

import pytest

from repro.block import BlockQueue, BlockRequest
from repro.block.request import READ
from repro.devices import HDD, SSD
from repro.faults import FaultInjector, FaultPlan, FaultyDevice
from repro.metrics.recorders import fault_summary
from repro.obs.bus import BlockDispatch
from repro.proc import ProcessTable
from repro.schedulers.noop import Noop
from repro.sim import Environment
from repro.sim.rand import RandomStreams


def make_stack(device=None, depth=1, scheduler=None):
    env = Environment()
    table = ProcessTable()
    queue = BlockQueue(
        env, device or SSD(), scheduler or Noop(),
        process_table=table, queue_depth=depth,
    )
    return env, table, queue


def run_batch(env, table, queue, nrequests, stride=64, nblocks=16):
    """Submit *nrequests* reads up front; return completion wall-clock."""
    task = table.spawn("t")

    def proc():
        events = [
            queue.submit(BlockRequest(READ, i * stride, nblocks, task))
            for i in range(nrequests)
        ]
        for e in events:
            yield e

    env.process(proc())
    env.run()
    return env.now


def test_queue_depth_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        BlockQueue(env, SSD(), Noop(), queue_depth=0)


def test_nslots_capped_by_device_channels():
    _env, _table, deep = make_stack(SSD(), depth=32)
    assert deep.queue_depth == 32
    assert deep.nslots == SSD().channels  # 32 tags, 10 channels
    _env, _table, hdd = make_stack(HDD(), depth=32)
    assert hdd.nslots == 1  # mechanical disk: one head, one slot
    _env, _table, single = make_stack(SSD(), depth=1)
    assert single.nslots == 1 and len(single.slots) == 1


def test_ssd_overlaps_at_depth_hdd_does_not():
    """Depth hides SSD access latency; an HDD is depth-invariant."""
    n = 16
    t_ssd_1 = run_batch(*make_stack(SSD(), depth=1), n)
    t_ssd_8 = run_batch(*make_stack(SSD(), depth=8), n)
    assert t_ssd_8 < t_ssd_1

    t_hdd_1 = run_batch(*make_stack(HDD(), depth=1), n)
    t_hdd_32 = run_batch(*make_stack(HDD(), depth=32), n)
    assert t_hdd_32 == t_hdd_1


def test_in_flight_is_oldest_outstanding():
    env, table, queue = make_stack(SSD(), depth=4)
    task = table.spawn("t")
    observed = []

    def proc():
        events = [queue.submit(BlockRequest(READ, i * 64, 16, task)) for i in range(8)]
        yield env.timeout(1e-6)  # mid-flight: several slots busy
        observed.append((list(queue.outstanding), queue.inflight_count))
        for e in events:
            yield e

    env.process(proc())
    env.run()
    outstanding, count = observed[0]
    assert count == len(outstanding) > 1
    ids = [request.id for request in outstanding]
    assert ids == sorted(ids)  # FIFO elevator: dispatch order is submit order
    assert not queue.outstanding and queue.inflight_count == 0


def test_kick_while_all_slots_busy_is_not_lost():
    """Regression: a kick landing while every slot is serving must be
    re-polled when a slot frees, not dropped with the consumed events.

    The gate hides the last request from the scheduler until every slot
    is mid-serve; the late kick() is then the only signal that it became
    visible.  A lost kick leaves the request queued forever.
    """

    class Gated(Noop):
        def __init__(self):
            super().__init__()
            self.gate_open = True
            self.hidden = None

        def next_request(self):
            request = super().next_request()
            if request is not None and not self.gate_open:
                self.hidden = request  # swallow it until the gate opens
                return None
            return request

        def open_gate(self):
            self.gate_open = True
            if self.hidden is not None:
                self._fifo.appendleft(self.hidden)
                self.hidden = None

    gated = Gated()
    env, table, queue = make_stack(SSD(), depth=4, scheduler=gated)
    task = table.spawn("t")
    done = []

    def proc():
        first = [queue.submit(BlockRequest(READ, i * 64, 64, task)) for i in range(4)]
        yield env.timeout(1e-6)
        assert all(slot.request is not None for slot in queue.slots)
        gated.gate_open = False
        late = queue.submit(BlockRequest(READ, 999, 1, task))
        gated.open_gate()
        queue.kick()  # lands while all four slots are busy
        for e in first:
            yield e
        yield late
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done and queue.completed == 5


def test_slot_counters_sum_to_queue_totals():
    env = Environment()
    table = ProcessTable()
    injector = FaultInjector(env, FaultPlan(read_error_prob=0.2), RandomStreams(3))
    device = FaultyDevice(SSD(), injector)
    queue = BlockQueue(env, device, Noop(), process_table=table, queue_depth=8)
    run_batch(env, table, queue, 40)

    assert queue.errors > 0, "fault plan should have injected errors"
    assert sum(slot.served for slot in queue.slots) == queue.completed + queue.failed
    assert sum(slot.errors for slot in queue.slots) == queue.errors
    assert sum(slot.retries for slot in queue.slots) == queue.retries
    assert sum(slot.timeouts for slot in queue.slots) == queue.timeouts
    assert sum(slot.failed for slot in queue.slots) == queue.failed
    assert sum(slot.served for slot in queue.slots if slot.index > 0) > 0, \
        "work should have spread beyond slot 0"


def test_fault_summary_slots_only_when_multi():
    env, table, single = make_stack(SSD(), depth=1)
    run_batch(env, table, single, 4)
    summary = fault_summary(single)
    assert "slots" not in summary and "queue_depth" not in summary

    env, table, multi = make_stack(SSD(), depth=4)
    run_batch(env, table, multi, 8)
    summary = fault_summary(multi)
    assert summary["queue_depth"] == 4
    assert len(summary["slots"]) == multi.nslots
    assert sum(s["served"] for s in summary["slots"]) == summary["completed"]
    assert summary["completed"] == 8  # totals unchanged by the breakdown


def test_dispatch_event_slot_attribute():
    """BlockDispatch.slot: None on a single-slot queue, an index on a
    multi-slot one — so depth-1 span files stay byte-identical."""

    def dispatch_slots(depth):
        env, table, queue = make_stack(SSD(), depth=depth)
        seen = []
        queue.bus.subscribe(BlockDispatch, lambda ev: seen.append(ev.slot))
        run_batch(env, table, queue, 6)
        return seen

    assert set(dispatch_slots(1)) == {None}
    multi = dispatch_slots(4)
    assert None not in multi
    assert len(set(multi)) > 1  # fanned across slots
