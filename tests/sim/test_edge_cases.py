"""Edge-case tests for the simulation kernel."""

import pytest

from repro.proc import Task
from repro.sim import AllOf, AnyOf, Environment, Interrupt
from repro.syscall.cpu import CPU


def test_interrupt_while_waiting_on_resource_releases_cleanly():
    """A task interrupted while queued for a CPU core withdraws."""
    env = Environment()
    cpu = CPU(env, cores=1)
    outcome = []

    def holder():
        yield from cpu.consume(Task("holder"), 10.0)

    def waiter():
        try:
            yield from cpu.consume(Task("waiter"), 1.0)
            outcome.append("acquired")
        except Interrupt:
            outcome.append("interrupted")

    def interrupter(victim):
        yield env.timeout(1)
        victim.interrupt()

    env.process(holder())
    victim = env.process(waiter())
    env.process(interrupter(victim))
    env.run()
    assert outcome == ["interrupted"]
    assert not cpu.waiters  # the interrupted waiter left the queue
    assert cpu.busy_cores == 0


def test_condition_with_pre_triggered_events():
    env = Environment()

    def proc():
        done = env.event()
        done.succeed("x")
        yield env.timeout(1)  # let it be processed
        result = yield AllOf(env, [done])
        return result[done]

    p = env.process(proc())
    env.run()
    assert p.value == "x"


def test_run_until_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed(41)
    env.run()  # processes ev
    assert env.run(until=ev) == 41  # returns instantly


def test_nested_anyof_failure_propagates():
    env = Environment()

    def proc():
        bad = env.event()
        good = env.timeout(10)
        bad.fail(RuntimeError("inner"))
        try:
            yield AnyOf(env, [bad, good])
        except RuntimeError as exc:
            return str(exc)

    p = env.process(proc())
    env.run()
    assert p.value == "inner"


def test_process_chain_of_joins():
    env = Environment()

    def leaf():
        yield env.timeout(1)
        return 1

    def middle():
        value = yield env.process(leaf())
        return value + 1

    def root():
        value = yield env.process(middle())
        return value + 1

    p = env.process(root())
    env.run()
    assert p.value == 3


def test_many_simultaneous_processes_complete():
    env = Environment()
    done = []

    def worker(index):
        yield env.timeout(index % 7 * 0.1)
        done.append(index)

    for i in range(500):
        env.process(worker(i))
    env.run()
    assert len(done) == 500


def test_environment_initial_time_offsets_everything():
    env = Environment(initial_time=1000.0)

    def proc():
        yield env.timeout(5)
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 1005.0


def test_event_failure_without_consumer_raises_at_step():
    env = Environment()
    ev = env.event()
    ev.fail(ValueError("nobody listening"))
    with pytest.raises(ValueError):
        env.run()


def test_interrupt_cause_round_trips():
    env = Environment()

    def victim_proc():
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            return interrupt.cause

    def attacker(victim):
        yield env.timeout(1)
        victim.interrupt(cause={"reason": "test"})

    victim = env.process(victim_proc())
    env.process(attacker(victim))
    env.run()
    assert victim.value == {"reason": "test"}
