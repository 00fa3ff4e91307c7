"""Tests for the CPU model.

The core pool is a FIFO counting semaphore: a task that finds a free
core is granted it at once (but still waits for the grant event), a
busy pool queues tasks in arrival order, a released core passes
straight to the oldest waiter, and a task interrupted while queued
withdraws without ever holding a core.
"""

import random
from collections import deque

import pytest

from repro.proc import Task
from repro.sim import Environment, Interrupt
from repro.syscall.cpu import COPY_BANDWIDTH, CPU, SYSCALL_OVERHEAD
from repro.units import MB


def test_cores_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        CPU(env, cores=0)
    with pytest.raises(ValueError):
        CPU(env, cores=-1)


def test_syscall_cost_scales_with_bytes():
    env = Environment()
    cpu = CPU(env)
    small = cpu.syscall_cost(0)
    big = cpu.syscall_cost(1 * MB)
    assert small == SYSCALL_OVERHEAD
    assert big == pytest.approx(SYSCALL_OVERHEAD + 1 * MB / COPY_BANDWIDTH)


def test_consume_zero_is_free():
    env = Environment()
    cpu = CPU(env, cores=1)
    task = Task("t")

    def proc():
        yield from cpu.consume(task, 0.0)
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 0.0
    assert cpu.busy_time == 0.0


def test_parallelism_up_to_core_count():
    env = Environment()
    cpu = CPU(env, cores=4)
    finish = []

    def burn(task):
        yield from cpu.consume(task, 1.0)
        finish.append(env.now)

    for i in range(8):
        env.process(burn(Task(f"t{i}")))
    env.run()
    # 8 jobs of 1 s on 4 cores: two waves.
    assert finish == [1.0] * 4 + [2.0] * 4
    assert cpu.busy_time == pytest.approx(8.0)


def test_one_core_serializes_tasks():
    env = Environment()
    cpu = CPU(env, cores=1)
    trace = []

    def worker(name):
        trace.append((env.now, name, "request"))
        yield from cpu.consume(Task(name), 2.0)
        trace.append((env.now, name, "exit"))

    env.process(worker("a"))
    env.process(worker("b"))
    env.run()
    assert trace == [
        (0, "a", "request"),
        (0, "b", "request"),
        (2, "a", "exit"),
        (4, "b", "exit"),
    ]


def test_two_cores_grant_in_fifo_order():
    env = Environment()
    cpu = CPU(env, cores=2)
    finish = []

    def worker(name):
        yield from cpu.consume(Task(name), 1.0)
        finish.append((env.now, name))

    for name in "abc":
        env.process(worker(name))
    env.run()
    # a and b start at once; c waits for the first core freed.
    assert finish == [(1, "a"), (1, "b"), (2, "c")]


def test_busy_cores_tracks_holders():
    env = Environment()
    cpu = CPU(env, cores=3)

    def worker(name):
        yield from cpu.consume(Task(name), 1.0)

    for i in range(2):
        env.process(worker(f"w{i}"))

    def checker():
        yield env.timeout(0.5)
        return cpu.busy_cores, len(cpu.waiters)

    c = env.process(checker())
    env.run()
    assert c.value == (2, 0)
    assert cpu.busy_cores == 0


def test_withdrawn_waiter_never_gets_a_core():
    env = Environment()
    cpu = CPU(env, cores=1)
    granted = {}

    def worker(name, seconds):
        try:
            yield from cpu.consume(Task(name), seconds)
            granted[name] = env.now - seconds
        except Interrupt:
            granted[name] = None

    env.process(worker("holder", 10.0))
    impatient = env.process(worker("impatient", 1.0))
    env.process(worker("patient", 2.0))

    def give_up():
        yield env.timeout(1)
        assert len(cpu.waiters) == 2
        impatient.interrupt()

    env.process(give_up())
    env.run()
    # The core freed at 10 skips the withdrawn waiter.
    assert granted == {"holder": 0.0, "impatient": None, "patient": 10.0}
    assert not cpu.waiters and cpu.busy_cores == 0
    assert cpu.busy_time == pytest.approx(12.0)


def test_interrupt_while_holding_a_core_passes_it_on():
    env = Environment()
    cpu = CPU(env, cores=1)
    finish = []

    def worker(name, seconds):
        try:
            yield from cpu.consume(Task(name), seconds)
            finish.append((env.now, name))
        except Interrupt:
            finish.append((env.now, name + " interrupted"))

    holder = env.process(worker("holder", 10.0))
    env.process(worker("next", 1.0))

    def interrupter():
        yield env.timeout(3)
        holder.interrupt()

    env.process(interrupter())
    env.run()
    assert finish == [(3, "holder interrupted"), (4, "next")]
    assert cpu.busy_time == pytest.approx(1.0)  # only completed work counts


class FifoSemaphore:
    """Reference model: the FIFO counting semaphore the CPU was built on.

    ``request`` returns an event succeeded at once when a slot is free
    and queued otherwise; ``release`` frees a held slot (or withdraws a
    queued request) and grants queued requests in arrival order.
    """

    def __init__(self, env, capacity):
        self.env = env
        self.capacity = capacity
        self.users = []
        self.queue = deque()

    def request(self):
        request = self.env.event()
        if len(self.users) < self.capacity:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)
        return request

    def release(self, request):
        if request in self.users:
            self.users.remove(request)
        elif request in self.queue:
            self.queue.remove(request)
            return
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()

    def consume(self, seconds):
        request = self.request()
        try:
            yield request
            yield self.env.timeout(seconds)
        finally:
            self.release(request)


def _run_pool(cores, seed, reference):
    """40 tasks with clashing arrival times, some interrupted; returns
    each task's (grant, finish) or interruption time, and the number of
    events scheduled."""
    rng = random.Random(seed)
    env = Environment()
    pool = FifoSemaphore(env, cores) if reference else CPU(env, cores)
    log = {}

    def task(i, arrival, seconds):
        yield env.timeout(arrival)
        try:
            if reference:
                yield from pool.consume(seconds)
            else:
                yield from pool.consume(Task(f"t{i}"), seconds)
        except Interrupt:
            log[i] = ("interrupted", env.now)
        else:
            log[i] = ("done", env.now - seconds, env.now)

    def interrupter(victim, at):
        yield env.timeout(at)
        if victim.is_alive:
            victim.interrupt()

    for i in range(40):
        # Half-second grid: many arrivals, grants and finishes coincide,
        # so the order of same-instant events is exercised too.
        arrival = rng.randrange(12) * 0.5
        seconds = rng.choice([0.5, 1.0, 1.5, 2.0])
        victim = env.process(task(i, arrival, seconds))
        if rng.random() < 0.2:
            env.process(interrupter(victim, arrival + rng.randrange(6) * 0.5))
    env.run()
    if not reference:
        assert pool.busy_cores == 0 and not pool.waiters
    return log, env._eid


@pytest.mark.parametrize("cores", [1, 2, 8])
@pytest.mark.parametrize("seed", range(5))
def test_grants_match_reference_fifo_semaphore(cores, seed):
    log, events = _run_pool(cores, seed, reference=False)
    expected, expected_events = _run_pool(cores, seed, reference=True)
    assert log == expected
    assert events == expected_events
    assert any(entry[0] == "interrupted" for entry in log.values())
