"""Hedged dispatch: racing slow attempts against a spare slot.

A fail-slow channel drags every request it serves; hedging re-issues
an attempt that exceeds the health monitor's adaptive deadline on a
free slot and lets the first completion win.  These tests pin the
race's contract: the winner completes the request exactly once at its
own finish time, the loser is cancelled, a lost race adds zero
latency, and with one slot (or no warmed-up monitor) the machinery is
provably inert.
"""

import pytest

from repro.block import BlockQueue, BlockRequest
from repro.block.request import READ
from repro.devices import SSD
from repro.devices.base import Device
from repro.health import HealthMonitor
from repro.metrics.recorders import fault_summary
from repro.obs.bus import BlockComplete, DeviceStart
from repro.proc import ProcessTable
from repro.schedulers.noop import Noop
from repro.sim import Environment

BASE = 0.001


class SkewedDevice(Device):
    """Uniform service, except channel 0 is fail-slow by *factor*."""

    def __init__(self, base=BASE, factor=20.0, channels=4):
        super().__init__(capacity_blocks=1 << 20, name="skew", channels=channels)
        self.base = base
        self.factor = factor

    def service_time(self, op, block, nblocks):
        self._check_bounds(block, nblocks)
        duration = self.base * (self.factor if self.serving_channel == 0 else 1.0)
        self._account(op, nblocks, duration)
        return duration


def make_stack(device, depth=4, hedge=True, warm_monitor=None):
    """A queue over *device*; ``warm_monitor`` pre-feeds N fast reads.

    The warmed monitor is then closed (unsubscribed from the bus) so
    its deadline stays frozen at 3x BASE: a live monitor would learn
    the slow channel's latency and adapt the deadline upward, which is
    the right production behaviour but makes timing assertions moot.
    """
    env = Environment()
    table = ProcessTable()
    queue = BlockQueue(
        env, device, Noop(), process_table=table, queue_depth=depth, hedge=hedge,
    )
    if warm_monitor:
        monitor = HealthMonitor(env, device.name, queue.bus)
        for _ in range(warm_monitor):
            monitor.observe("read", BASE)
        monitor.close()
        queue.health = monitor
    return env, table, queue


def submit_serial(env, table, queue, n, stride=64, nblocks=16):
    """One request at a time; returns each request's completion latency."""
    task = table.spawn("t")
    latencies = []

    def proc():
        for i in range(n):
            start = env.now
            yield queue.submit(BlockRequest(READ, i * stride, nblocks, task))
            latencies.append(env.now - start)

    env.process(proc())
    env.run()
    return latencies


def submit_batch(env, table, queue, n, stride=64, nblocks=16):
    """All-at-once submission; returns the last request's completion
    time (NOT env.now — a won race leaves the loser's dead timer in the
    event heap, so run-to-exhaustion overshoots the real makespan)."""
    task = table.spawn("t")
    done_at = [0.0]
    queue.bus.subscribe(
        BlockComplete,
        lambda _e: done_at.__setitem__(0, env.now)
    )

    def proc():
        events = [
            queue.submit(BlockRequest(READ, i * stride, nblocks, task))
            for i in range(n)
        ]
        for event in events:
            yield event

    env.process(proc())
    env.run()
    return done_at[0]


def test_hedge_flag_inert_at_one_slot():
    env = Environment()
    queue = BlockQueue(env, SSD(), Noop(), queue_depth=1, hedge=True)
    assert queue.hedge is False
    # And an HDD's channel cap forces one slot regardless of depth.
    from repro.devices import HDD

    queue = BlockQueue(env, HDD(), Noop(), queue_depth=32, hedge=True)
    assert queue.hedge is False


def test_no_hedging_without_warm_monitor():
    """The fallback deadline is request_timeout, which the timeout path
    preempts — so hedging waits for the monitor's first verdicts."""
    env, table, queue = make_stack(SkewedDevice(), hedge=True, warm_monitor=None)
    submit_serial(env, table, queue, 8)
    assert queue.hedges_issued == 0
    assert queue.completed == 8


def test_hedge_cuts_fail_slow_latency():
    """The sick channel's 20x service collapses to deadline + healthy."""
    unhedged_env, t1, unhedged = make_stack(SkewedDevice(), hedge=False)
    slow = submit_serial(unhedged_env, t1, unhedged, 8)
    env, table, queue = make_stack(SkewedDevice(), hedge=True, warm_monitor=32)
    fast = submit_serial(env, table, queue, 8)

    # Serial submissions land on slot 0 (the sick channel) every time.
    assert all(latency == pytest.approx(20 * BASE) for latency in slow)
    # Hedged: deadline (3x base, the monitor's p95 x margin) + a fresh
    # fast attempt on a healthy slot.
    assert all(latency == pytest.approx(4 * BASE) for latency in fast)
    assert queue.hedges_issued == 8
    assert queue.hedge_wins == 8
    assert queue.hedge_losses == 0
    assert queue.completed == 8 and queue.failed == 0


def test_lost_race_adds_zero_latency():
    """When every channel is equally fast, the primary always wins and
    the hedge machinery must not have changed completion times."""

    class Uniform(Device):
        def __init__(self):
            super().__init__(capacity_blocks=1 << 20, name="uniform", channels=4)

        def service_time(self, op, block, nblocks):
            self._check_bounds(block, nblocks)
            self._account(op, nblocks, BASE)
            return BASE

    env, table, queue = make_stack(Uniform(), hedge=True, warm_monitor=None)
    monitor = HealthMonitor(env, "uniform", queue.bus)
    for _ in range(32):
        monitor.observe("read", BASE / 10)  # deadline 3e-4 < BASE: always race
    monitor.close()  # freeze the deadline; see make_stack
    queue.health = monitor

    latencies = submit_serial(env, table, queue, 8)
    assert all(latency == pytest.approx(BASE) for latency in latencies)
    assert queue.hedges_issued == 8
    assert queue.hedge_losses == 8 and queue.hedge_wins == 0
    assert queue.completed == 8


def test_each_request_completes_exactly_once():
    env, table, queue = make_stack(SkewedDevice(), hedge=True, warm_monitor=32)
    completions = []
    queue.bus.subscribe(BlockComplete, lambda e: completions.append(e.request))
    submit_batch(env, table, queue, 32)
    assert queue.completed == 32
    assert len(completions) == 32
    assert len({request.id for request in completions}) == 32
    assert queue.hedges_issued == queue.hedge_wins + queue.hedge_losses
    assert sum(slot.served for slot in queue.slots) == 32
    assert sum(slot.hedge_wins for slot in queue.slots) == queue.hedge_wins


def test_hedged_batch_faster_than_unhedged():
    unhedged = submit_batch(*make_stack(SkewedDevice(), hedge=False), 32)
    env, table, queue = make_stack(SkewedDevice(), hedge=True, warm_monitor=32)
    hedged = submit_batch(env, table, queue, 32)
    assert hedged < unhedged
    assert queue.hedges_issued > 0 and queue.hedge_wins > 0


def test_hedge_marks_requests_and_summary():
    env, table, queue = make_stack(SkewedDevice(), hedge=True, warm_monitor=32)
    completions = []
    queue.bus.subscribe(BlockComplete, lambda e: completions.append(e.request))
    submit_serial(env, table, queue, 4)
    assert all(request.hedged for request in completions)
    summary = fault_summary(queue)
    assert summary["hedging"] == {"issued": 4, "wins": 4, "losses": 0}
    assert summary["health"]["device"] == "skew"
    # Per-slot breakdown: the clones ran (and won) off slot 0.
    assert sum(slot["hedges"] for slot in summary["slots"]) == 4


def test_unhedged_summary_has_no_hedging_key():
    env, table, queue = make_stack(SkewedDevice(), hedge=False)
    submit_serial(env, table, queue, 2)
    summary = fault_summary(queue)
    assert "hedging" not in summary
    assert "health" not in summary


@pytest.mark.parametrize("depth", [1, 4])
def test_first_attempt_past_the_deadline_races(depth):
    """Attempt 1 crossing the deadline still races at depth 4; at depth
    1 the lone slot has nowhere to race, so it serves out the stall."""
    env, table, queue = make_stack(SkewedDevice(), depth=depth, warm_monitor=32)
    starts = []
    queue.bus.subscribe(DeviceStart, lambda e: starts.append((e.block, e.attempt)))
    completions = []
    queue.bus.subscribe(BlockComplete, lambda e: completions.append(e.request))
    latencies = submit_serial(env, table, queue, 1)

    [request] = completions
    assert request.attempts == 1
    assert queue.device.active == 0
    if depth == 1:
        assert latencies == [pytest.approx(20 * BASE)]
        assert queue.hedges_issued == 0 and not request.hedged
        assert starts == [(0, 1)]
    else:
        assert latencies == [pytest.approx(4 * BASE)]
        assert queue.hedges_issued == 1 and queue.hedge_wins == 1
        assert request.hedged
        # The clone is another start of attempt 1, on a healthy slot.
        assert starts == [(0, 1), (0, 1)]
        assert sum(slot.hedges for slot in queue.slots[1:]) == 1
