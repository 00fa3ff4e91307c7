"""Host-cost gate for the two memory-speed syscall paths.

A buffered write that only overwrites dirty pages and a read that hits
clean pages each make exactly two kernel events (the core grant and the
compute timeout).  Their host cost is the Python work between them, so
these tests count Python-level calls (``sys.setprofile`` "call" events,
generator resumptions included) and event ids for one steady-state
call.  The counts do not depend on the host's speed or load, so the
gate is exact, but they do depend on the interpreter: 3.12 runs legacy
profiling on ``sys.monitoring`` and inlines comprehensions.  The
budgets were measured on CPython 3.11, so the two budget tests run
only there; budgets for other versions need measuring on them.  The
re-read test counts only events and extents and runs everywhere.
"""

import sys

import pytest

from repro.sim.core import Environment
from repro.syscall.os import OS
from repro.units import KB, MB

#: Budgets per call on CPython 3.11: (noop, split-token).  Before this
#: gate the paths cost overwrite 34 / 44 and hit 27 / 31 calls.
OVERWRITE_BUDGET = {"noop": 20, "split-token": 25}
HIT_BUDGET = {"noop": 18, "split-token": 19}

measured_interpreter = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="call budgets were measured on CPython 3.11; the profiler's "
    "call events differ on other versions",
)


def _drive(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def _stack(scheduler, clean):
    env = Environment()
    machine = OS(env, scheduler=scheduler, memory_bytes=256 * MB, cores=2)
    task = machine.spawn("t")

    def setup():
        handle = yield from machine.open(task, "/f", mode="w+")
        yield from handle.pwrite(0, 2 * MB)
        if clean:
            yield from handle.fsync()
        return handle

    handle = _drive(env, setup())
    if clean:
        env.run(until=env.now + 1.0)
    return env, machine, handle


def _count(env, gen):
    """Python calls and events of driving *gen* to its end."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    proc = env.process(gen)
    eid = env._eid
    sys.setprofile(profile)
    try:
        env.run(until=proc)
    finally:
        sys.setprofile(None)
    return calls[0], env._eid - eid


def _per_call(env, make_loop):
    """Calls and events of one call: a loop of 11 minus a loop of 1,
    so the process start and end cancel out."""
    one = _count(env, make_loop(1))
    eleven = _count(env, make_loop(11))
    return (eleven[0] - one[0]) / 10, (eleven[1] - one[1]) / 10


@measured_interpreter
@pytest.mark.parametrize("scheduler", ["noop", "split-token"])
def test_cached_overwrite_budget(scheduler):
    env, _, handle = _stack(scheduler, clean=False)

    def loop(count):
        for _ in range(count):
            yield from handle.pwrite(0, 64 * KB)

    _drive(env, loop(3))  # steady state: the writer is in every cause set
    calls, events = _per_call(env, loop)
    assert events == 2
    assert calls <= OVERWRITE_BUDGET[scheduler]


@measured_interpreter
@pytest.mark.parametrize("scheduler", ["noop", "split-token"])
def test_cache_hit_budget(scheduler):
    env, machine, handle = _stack(scheduler, clean=True)
    pages = iter(range(1, 512))

    def loop(count):
        for _ in range(count):
            yield from handle.pread(next(pages) * 4 * KB, 4 * KB)

    hits = machine.cache.hits
    calls, events = _per_call(env, loop)
    assert machine.cache.hits - hits == 12
    assert events == 2
    assert calls <= HIT_BUDGET[scheduler]


def test_rereads_keep_one_clean_extent():
    """Re-reading a fully cached file in 4 KB preads neither splits its
    clean extent for good nor costs more than two events a read."""
    env, machine, handle = _stack("noop", clean=True)
    cache = machine.cache

    def one_pass():
        for page in range(512):
            yield from handle.pread(page * 4 * KB, 4 * KB)

    for _ in range(3):
        hits, misses, eid = cache.hits, cache.misses, env._eid
        _drive(env, one_pass())
        assert cache.hits - hits == 512 and cache.misses == misses
        assert env._eid - eid == 2 * 512 + 2  # and the pass process start, end
        assert len(cache._extents[handle.inode.id][1]) == 1
