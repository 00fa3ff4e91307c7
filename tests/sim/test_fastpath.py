"""Kernel fast path: slots, callback pooling, and lazy cancel sweep.

These pin the memory/allocation discipline the event-loop throughput
benchmark depends on, so a refactor can't silently reintroduce
per-event dict allocations or an O(n) heap removal.
"""

import pytest

from repro.sim import Environment


def test_hot_objects_have_no_instance_dict():
    env = Environment()
    assert not hasattr(env, "__dict__")
    assert not hasattr(env.event(), "__dict__")
    assert not hasattr(env.timeout(1), "__dict__")

    def proc():
        yield env.timeout(1)

    assert not hasattr(env.process(proc()), "__dict__")

    from repro.block.request import BlockRequest
    from repro.cache.page import DirtyRun
    from repro.proc import Task

    task = Task("w")
    assert not hasattr(BlockRequest("read", 0, 1, task), "__dict__")
    assert not hasattr(DirtyRun(1, 0, 1, cache=None), "__dict__")


def test_cancelled_timeout_is_swept_not_dispatched():
    env = Environment()
    fired = []

    timer = env.timeout(1, value="timer")
    timer.callbacks.append(lambda ev: fired.append(ev.value))
    keeper = env.timeout(2, value="keeper")
    keeper.callbacks.append(lambda ev: fired.append(ev.value))

    timer.cancel()
    assert timer.callbacks is None  # swept lazily by the run loop
    env.run()
    assert fired == ["keeper"]
    assert env.now == 2  # the cancelled entry was popped and skipped


def test_cancel_is_safe_after_processing():
    env = Environment()
    timer = env.timeout(1)
    env.run()
    timer.cancel()  # no-op on an already-dispatched event
    assert timer.processed is False or timer.callbacks is None


def test_callback_lists_are_pooled_and_reused():
    env = Environment()
    for _ in range(5):
        env.timeout(0)
    env.run()
    assert env._cb_pool, "dispatched events should recycle their callback lists"
    pooled = env._cb_pool[-1]
    event = env.event()
    assert event.callbacks is pooled  # newest event reuses the pooled list
    assert event.callbacks == []


def test_pool_is_bounded():
    from repro.sim.core import _CB_POOL_MAX

    env = Environment()
    for _ in range(_CB_POOL_MAX + 200):
        env.timeout(0)
    env.run()
    assert len(env._cb_pool) <= _CB_POOL_MAX


def test_failed_event_still_raises_through_run():
    env = Environment()
    event = env.event()
    event.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_step_debug_api_still_dispatches_one_event():
    env = Environment()
    seen = []
    first = env.timeout(1)
    first.callbacks.append(lambda ev: seen.append("first"))
    env.timeout(2).callbacks.append(lambda ev: seen.append("second"))
    env.step()
    assert seen == ["first"]
    assert env.now == 1


def test_step_skips_swept_events():
    env = Environment()
    victim = env.timeout(1)
    survivor = env.timeout(2)
    survivor.callbacks.append(lambda ev: None)
    victim.cancel()
    env.step()  # pops the swept entry, dispatches nothing
    assert env.now == 1
    env.step()
    assert env.now == 2
