"""Benchmark harness configuration.

Each benchmark regenerates one figure/table of the paper at a
simulation scale that finishes in reasonable wall time, prints the
same rows/series the paper reports, and asserts the qualitative
finding (who wins, rough factor, crossover).  pytest-benchmark is used
in single-round pedantic mode: an experiment is a deterministic
simulation, so repeated timing rounds would only re-measure Python.
"""

import pytest

from repro.experiments.runner import run_experiment


def run_once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under pytest-benchmark and return it."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def runner(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return runner


@pytest.fixture
def figure(benchmark):
    """Run one figure through the experiment runner exactly once under
    pytest-benchmark and return its merged result."""
    def runner(key, **overrides):
        return run_once(benchmark, lambda: run_experiment(key, overrides).result)

    return runner
