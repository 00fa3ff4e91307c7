"""A request's first device attempt, when it does not simply succeed.

The dispatch slot prices attempt 1 itself and hands anything other
than a plain success (an error, a stall past the request timeout) to
the block queue's retry path.  These tests pin that hand-over at queue
depth 1 and at depth 4 on a four-channel device: counters land on the
slot that served the attempt, attempts are numbered from 1 on the bus,
a non-retryable error still crashes loudly, and the device's busy
channel count always returns to zero.
"""

import pytest

from repro.block import BlockQueue, BlockRequest
from repro.block.queue import RequestTimeout
from repro.block.request import READ
from repro.devices.base import Device, DeviceError
from repro.faults import MediumError
from repro.obs.bus import DeviceStart
from repro.proc import ProcessTable
from repro.schedulers.noop import Noop
from repro.sim import Environment

SERVICE = 0.001
ERROR_LATENCY = 0.002
BACKOFF = 0.01
TIMEOUT = 1.0
STALL = 60.0

DEPTHS = pytest.mark.parametrize("depth", [1, 4])


class FirstAttemptDevice(Device):
    """Four channels; each request's first attempt misbehaves.

    ``mode`` picks how: ``"error"`` raises a retryable medium error,
    ``"stall"`` wants a service time far past the request timeout, and
    ``"bug"`` raises a non-retryable error.  Later attempts serve in
    ``SERVICE`` seconds.
    """

    def __init__(self, mode, channels=4):
        super().__init__(capacity_blocks=1 << 20, name="first", channels=channels)
        self.mode = mode
        self.seen = set()

    def service_time(self, op, block, nblocks):
        self._check_bounds(block, nblocks)
        if block not in self.seen:
            self.seen.add(block)
            if self.mode == "error":
                raise MediumError("first attempt", latency=ERROR_LATENCY)
            if self.mode == "bug":
                raise DeviceError("malformed first attempt")
            if self.mode == "stall":
                return STALL
        self._account(op, nblocks, SERVICE)
        return SERVICE


def make_queue(device, depth):
    env = Environment()
    table = ProcessTable()
    queue = BlockQueue(
        env, device, Noop(), process_table=table, queue_depth=depth,
        retry_backoff=BACKOFF, request_timeout=TIMEOUT,
    )
    starts = []
    queue.bus.subscribe(DeviceStart, lambda e: starts.append((e.block, e.attempt)))
    return env, table, queue, starts


def submit_four(env, table, queue):
    """Submit four requests at once and run them all to completion."""
    task = table.spawn("t")
    requests = [BlockRequest(READ, i * 64, 8, task) for i in range(4)]

    def proc():
        events = [queue.submit(request) for request in requests]
        for event in events:
            yield event

    env.process(proc())
    env.run()
    return requests


@DEPTHS
def test_retryable_error_on_first_attempt_is_retried_on_its_slot(depth):
    env, table, queue, starts = make_queue(FirstAttemptDevice("error"), depth)
    requests = submit_four(env, table, queue)

    assert all(not request.failed for request in requests)
    assert [request.attempts for request in requests] == [2, 2, 2, 2]
    assert queue.errors == 4 and queue.retries == 4 and queue.failed == 0
    # Every request's attempts appear on the bus as 1 then 2.
    for request in requests:
        assert [a for block, a in starts if block == request.block] == [1, 2]
    # Each request erred and retried on the slot that served it.
    per_slot = {slot.index: (slot.errors, slot.retries) for slot in queue.slots}
    for index, slot in enumerate(queue.slots):
        served = sum(1 for request in requests if request.slot == index)
        assert per_slot[index] == (served, served)
    assert queue.device.active == 0
    if depth == 1:
        # Serial: each request pays error latency, backoff and service.
        assert env.now == pytest.approx(4 * (ERROR_LATENCY + BACKOFF + SERVICE))
    else:
        assert sorted(request.slot for request in requests) == [0, 1, 2, 3]
        assert env.now == pytest.approx(ERROR_LATENCY + BACKOFF + SERVICE)


@DEPTHS
def test_non_retryable_error_on_first_attempt_propagates(depth):
    env, table, queue, starts = make_queue(FirstAttemptDevice("bug"), depth)
    request = BlockRequest(READ, 0, 8, table.spawn("t"))
    queue.submit(request)
    with pytest.raises(DeviceError, match="malformed first attempt"):
        env.run(until=request.done)
    assert starts == [(0, 1)]
    assert queue.errors == 0 and queue.retries == 0
    assert queue.device.active == 0


@DEPTHS
def test_first_attempt_stall_takes_the_timeout_retry(depth):
    env, table, queue, starts = make_queue(FirstAttemptDevice("stall"), depth)
    requests = submit_four(env, table, queue)

    assert all(not request.failed for request in requests)
    assert [request.attempts for request in requests] == [2, 2, 2, 2]
    assert queue.timeouts == 4 and queue.retries == 4 and queue.errors == 0
    assert sum(slot.timeouts for slot in queue.slots) == 4
    for slot in queue.slots:
        assert slot.timeouts == slot.retries
    for request in requests:
        assert [a for block, a in starts if block == request.block] == [1, 2]
    assert queue.device.active == 0
    # The stall costs the timeout, never the full stall.
    per_request = TIMEOUT + BACKOFF + SERVICE
    assert env.now == pytest.approx(per_request * (4 if depth == 1 else 1))


def test_request_timeout_error_names_the_stall():
    env, table, queue, _starts = make_queue(FirstAttemptDevice("stall"), 1)
    queue.max_retries = 0
    request = BlockRequest(READ, 0, 8, table.spawn("t"))
    queue.submit(request)
    env.run(until=request.done)
    assert request.failed and isinstance(request.error, RequestTimeout)
    assert f"service wanted {STALL:.3f}s" in str(request.error)
