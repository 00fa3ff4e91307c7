"""Tests for the simulation environment and event queue."""

import pytest

from repro.sim import Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_starts_at_initial_time():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_run_until_time_advances_clock():
    env = Environment()
    env.run(until=10)
    assert env.now == 10


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=5)
    with pytest.raises(ValueError):
        env.run(until=4)


def test_run_until_now_is_noop():
    """A zero-length advance returns immediately instead of raising."""
    env = Environment()
    env.run(until=5)
    assert env.run(until=5) is None
    assert env.now == 5
    # The run_for(env, 0.0) idiom from experiments/common.py.
    env.run(until=env.now + 0.0)
    assert env.now == 5


def test_timeout_fires_at_right_time():
    env = Environment()
    times = []

    def proc(env):
        yield env.timeout(3)
        times.append(env.now)
        yield env.timeout(4.5)
        times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [3, 7.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()

    def proc(env):
        value = yield env.timeout(1, value="hello")
        return value

    p = env.process(proc(env))
    env.run()
    assert p.value == "hello"


def test_events_process_in_time_order():
    env = Environment()
    order = []

    def proc(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(env, 3, "c"))
    env.process(proc(env, 1, "a"))
    env.process(proc(env, 2, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in range(5):
        env.process(proc(env, tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return 99

    p = env.process(proc(env))
    assert env.run(until=p) == 99
    assert env.now == 2


def test_run_until_untriggered_event_raises():
    env = Environment()
    ev = env.event()  # never triggered
    with pytest.raises(RuntimeError):
        env.run(until=ev)


def test_event_succeed_once_only():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_failed_event_propagates_to_process():
    env = Environment()

    def proc(env, ev):
        try:
            yield ev
        except ValueError as exc:
            return str(exc)

    ev = env.event()
    p = env.process(proc(env, ev))
    ev.fail(ValueError("boom"))
    env.run()
    assert p.value == "boom"


def test_unhandled_failed_event_crashes_run():
    env = Environment()
    ev = env.event()
    ev.fail(ValueError("unattended"))
    with pytest.raises(ValueError, match="unattended"):
        env.run()


def test_step_on_empty_queue_raises():
    from repro.sim.core import EmptySchedule

    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()
