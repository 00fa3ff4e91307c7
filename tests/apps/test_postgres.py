"""Tests for the PostgreSQL-like engine and pgbench driver."""

from repro import Environment, OS, SSD, MB
from repro.apps.postgres import PgbenchResult, Postgres
from repro.schedulers import Noop


def make_pg(**kwargs):
    env = Environment()
    machine = OS(env, device=SSD(), scheduler=Noop(), memory_bytes=512 * MB)
    db = Postgres(machine, table_bytes=8 * MB, workers=2, **kwargs)
    proc = env.process(db.setup())
    env.run(until=proc)
    return env, machine, db


def test_bench_runs_transactions_on_all_workers():
    env, machine, db = make_pg(checkpoint_interval=1000)
    bench = env.process(db.run_bench(duration=2.0))
    env.run(until=bench)
    result = bench.value
    assert result.count > 20
    assert db.wal.inode.size > 0


def test_checkpointer_runs_periodically():
    env, machine, db = make_pg(checkpoint_interval=1.0)
    bench = env.process(db.run_bench(duration=4.5))
    env.run(until=bench)
    assert db.checkpoints >= 3


def test_result_statistics():
    result = PgbenchResult([0.001, 0.002, 0.1, 0.6], target=0.015)
    assert result.count == 4
    assert result.fraction_over(0.015) == 0.5
    assert result.fraction_over(0.5) == 0.25
    assert 0.001 <= result.median() <= 0.1


def test_empty_result_fractions_are_zero():
    result = PgbenchResult([], target=0.015)
    assert result.fraction_over(1.0) == 0.0
