"""Tests for composite events (AllOf/AnyOf) and RNG streams."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, RandomStreams


def test_allof_waits_for_all():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, "a")
        t2 = env.timeout(5, "b")
        result = yield AllOf(env, [t1, t2])
        return (env.now, result[t1], result[t2])

    p = env.process(proc(env))
    env.run()
    assert p.value == (5, "a", "b")


def test_anyof_returns_on_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, "fast")
        t2 = env.timeout(5, "slow")
        result = yield AnyOf(env, [t1, t2])
        assert t1 in result
        assert t2 not in result
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 1


def test_allof_empty_triggers_immediately():
    env = Environment()

    def proc(env):
        result = yield AllOf(env, [])
        return (env.now, len(result))

    p = env.process(proc(env))
    env.run()
    assert p.value == (0, 0)


def test_condition_value_mapping_protocol():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, "x")
        result = yield AllOf(env, [t1])
        assert len(result) == 1
        assert list(result) == [t1]
        assert result.todict() == {t1: "x"}
        with pytest.raises(KeyError):
            _ = result[env.event()]

    env.process(proc(env))
    env.run()


def test_condition_rejects_foreign_events():
    env1 = Environment()
    env2 = Environment()
    with pytest.raises(ValueError):
        AllOf(env1, [env2.timeout(1)])


def test_allof_propagates_failure():
    env = Environment()

    def proc(env):
        good = env.timeout(1)
        bad = env.event()
        bad.fail(ValueError("bad"))
        try:
            yield AllOf(env, [good, bad])
        except ValueError as exc:
            return str(exc)

    p = env.process(proc(env))
    env.run()
    assert p.value == "bad"


def _one_event_trace(make_condition, fail=False):
    """Resumption order and event count when a process waits on a
    condition over one pending event that another process triggers."""
    env = Environment()
    trace = []
    target = env.event()

    def waiter():
        try:
            result = yield make_condition(env, target)
            trace.append(("waiter", env.now, list(result.todict().values())))
        except ValueError as exc:
            trace.append(("waiter", env.now, str(exc)))

    def bystander(name):
        yield env.timeout(1)
        trace.append((name, env.now))

    def trigger():
        yield env.timeout(1)
        if fail:
            target.fail(ValueError("bad"))
        else:
            target.succeed("v")
        trace.append(("trigger", env.now))

    env.process(bystander("before"))
    env.process(waiter())
    env.process(trigger())
    env.process(bystander("after"))
    env.run()
    return trace, env._eid


@pytest.mark.parametrize("fail", [False, True])
def test_allof_of_one_pending_event_matches_the_generic_condition(fail):
    from repro.sim.events import Condition

    fast = _one_event_trace(lambda env, ev: AllOf(env, [ev]), fail)
    generic = _one_event_trace(
        lambda env, ev: Condition(env, Condition.all_events, [ev]), fail
    )
    assert fast == generic
    expected = "bad" if fail else ["v"]
    assert ("waiter", 1, expected) in fast[0]


def test_allof_of_one_processed_event_triggers_at_once():
    env = Environment()
    done = env.event()
    done.succeed("x")
    env.run()  # done is processed now

    def proc():
        result = yield AllOf(env, [done])
        return env.now, result[done]

    p = env.process(proc())
    env.run()
    assert p.value == (0, "x")


def test_random_streams_deterministic():
    a = RandomStreams(seed=7).stream("disk").random()
    b = RandomStreams(seed=7).stream("disk").random()
    assert a == b


def test_random_streams_independent_by_name():
    streams = RandomStreams(seed=7)
    assert streams["disk"].random() != streams["workload"].random()


def test_random_streams_differ_by_seed():
    a = RandomStreams(seed=1).stream("disk").random()
    b = RandomStreams(seed=2).stream("disk").random()
    assert a != b


def test_random_stream_is_cached():
    streams = RandomStreams()
    assert streams.stream("x") is streams.stream("x")


def test_event_or_operator_waits_for_first():
    env = Environment()

    def proc(env):
        fast = env.timeout(1, "fast")
        slow = env.timeout(9, "slow")
        result = yield fast | slow
        return (env.now, fast in result)

    p = env.process(proc(env))
    env.run()
    assert p.value == (1, True)


def test_event_and_operator_waits_for_both():
    env = Environment()

    def proc(env):
        a = env.timeout(1)
        b = env.timeout(5)
        yield a & b
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 5


def test_operators_chain():
    env = Environment()

    def proc(env):
        a = env.timeout(1)
        b = env.timeout(2)
        c = env.timeout(30)
        yield (a & b) | c
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 2
