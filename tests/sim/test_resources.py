"""Tests for Resource."""

import pytest

from repro.sim import Environment, Resource


def test_resource_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_mutual_exclusion():
    env = Environment()
    res = Resource(env, capacity=1)
    trace = []

    def worker(env, name):
        with res.request() as req:
            yield req
            trace.append((env.now, name, "enter"))
            yield env.timeout(2)
            trace.append((env.now, name, "exit"))

    env.process(worker(env, "a"))
    env.process(worker(env, "b"))
    env.run()
    assert trace == [
        (0, "a", "enter"),
        (2, "a", "exit"),
        (2, "b", "enter"),
        (4, "b", "exit"),
    ]


def test_resource_capacity_two_allows_concurrency():
    env = Environment()
    res = Resource(env, capacity=2)
    enters = []

    def worker(env, name):
        with res.request() as req:
            yield req
            enters.append((env.now, name))
            yield env.timeout(1)

    for name in "abc":
        env.process(worker(env, name))
    env.run()
    assert enters == [(0, "a"), (0, "b"), (1, "c")]


def test_resource_count_tracks_users():
    env = Environment()
    res = Resource(env, capacity=3)

    def worker(env):
        with res.request() as req:
            yield req
            yield env.timeout(1)

    for _ in range(2):
        env.process(worker(env))

    def checker(env):
        yield env.timeout(0.5)
        return res.count

    c = env.process(checker(env))
    env.run()
    assert c.value == 2
    assert res.count == 0


def test_resource_release_without_grant_removes_from_queue():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def impatient(env):
        req = res.request()
        yield env.timeout(1)
        assert not req.triggered
        req.cancel()
        return "gave up"

    env.process(holder(env))
    p = env.process(impatient(env))
    env.run()
    assert p.value == "gave up"
    assert not res.queue
