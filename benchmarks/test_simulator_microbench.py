"""Microbenchmarks of the simulator itself (real wall-clock timing).

These use pytest-benchmark's normal timed rounds — unlike the figure
benches, here the *host* performance of the simulation substrate is
the quantity of interest: event throughput, the syscall path, and the
page-cache hot paths that every experiment leans on.
"""

import pytest

from repro import Environment, OS, SSD, KB, MB
from repro.cache import PageCache, PageKey
from repro.core.tags import TagManager
from repro.proc import Task
from repro.schedulers import Noop


def test_event_loop_throughput(benchmark):
    """Schedule-and-run cost of bare timeout events."""

    def run():
        env = Environment()

        def ticker():
            for _ in range(2000):
                yield env.timeout(0.001)

        env.process(ticker())
        env.run()
        return env.now

    result = benchmark(run)
    assert result == pytest.approx(2.0)


def test_cached_write_syscall_path(benchmark):
    """End-to-end write() through hooks, cache, and journal join."""
    env = Environment()
    machine = OS(env, device=SSD(), scheduler=Noop(), memory_bytes=256 * MB)
    task = machine.spawn("w")

    def setup():
        handle = yield from machine.creat(task, "/f")
        return handle

    proc = env.process(setup())
    env.run(until=proc)
    handle = proc.value

    def write_batch():
        def body():
            for _ in range(100):
                yield from handle.pwrite(0, 4 * KB)

        p = env.process(body())
        env.run(until=p)

    benchmark(write_batch)
    assert machine.fs.writes > 0


def test_cache_mark_dirty_hot_path(benchmark):
    env = Environment()
    cache = PageCache(env, TagManager(), memory_bytes=64 * MB)
    task = Task("w")

    counter = [0]

    def dirty_batch():
        base = counter[0]
        counter[0] += 1000
        for i in range(1000):
            cache.mark_dirty(PageKey(1, (base + i) % 8192), task)

    benchmark(dirty_batch)
    assert cache.dirty_pages > 0


def test_cache_hit_lookup_hot_path(benchmark):
    env = Environment()
    cache = PageCache(env, TagManager(), memory_bytes=64 * MB)
    block_map = {i: i for i in range(4096)}
    cache.insert_clean_run(1, list(block_map.items()))

    def lookup_batch():
        return cache.lookup_range(1, 0, 4096, block_map)

    assert benchmark(lookup_batch) == []
    assert cache.misses == 0
