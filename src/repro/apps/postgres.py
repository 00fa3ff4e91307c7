"""A PostgreSQL-like engine driven by a pgbench-style workload (§7.1.2).

TPC-B-ish transactions: read a few table pages, update one, append a
WAL record, fsync the WAL (the *foreground* fsync).  A checkpointer
flushes all dirty table pages every ``checkpoint_interval`` seconds and
fsyncs the table — the burst behind the community's "fsync freeze"
problem: at the end of each checkpoint period a flood of writes and a
big fsync stall foreground commits.

Latency targets mirror the paper: foreground fsyncs want ~5 ms,
checkpoint fsyncs get 200 ms, transactions should finish within 15 ms.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.metrics.recorders import LatencyRecorder, percentile
from repro.units import KB, MB, PAGE_SIZE


class PgbenchResult:
    """Latency distribution of a pgbench run."""

    def __init__(self, latencies: List[float], target: float):
        self.latencies = latencies
        self.target = target

    @property
    def count(self) -> int:
        return len(self.latencies)

    def fraction_over(self, threshold: float) -> float:
        if not self.latencies:
            return 0.0
        return sum(1 for lat in self.latencies if lat > threshold) / len(self.latencies)

    def percentile(self, p: float) -> float:
        return percentile(self.latencies, p)

    def median(self) -> float:
        return self.percentile(50)


class Postgres:
    """One database instance with workers and a periodic checkpointer."""

    def __init__(
        self,
        os,
        name: str = "pg",
        table_bytes: int = 256 * MB,
        workers: int = 4,
        checkpoint_interval: float = 30.0,
        reads_per_txn: int = 2,
        wal_record: int = 8 * KB,
        latency_target: float = 0.015,
        seed: int = 0,
    ):
        self.os = os
        self.name = name
        self.table_bytes = table_bytes
        self.checkpoint_interval = checkpoint_interval
        self.reads_per_txn = reads_per_txn
        self.wal_record = wal_record
        self.latency_target = latency_target
        self.rng = random.Random(seed)
        self.worker_tasks = [os.spawn(f"{name}-worker{i}") for i in range(workers)]
        self.checkpoint_task = os.spawn(f"{name}-checkpointer")
        self.table = None
        self.wal = None
        self.latency = LatencyRecorder(f"{name}-txn")
        self.checkpoints = 0
        self._stop = False

    def setup(self):
        """Generator: build the table and WAL, start the checkpointer."""
        from repro.workloads.generators import prefill_file

        self.table = yield from prefill_file(
            self.os, self.checkpoint_task, f"/{self.name}.db", self.table_bytes
        )
        self.wal = yield from self.os.creat(self.worker_tasks[0], f"/{self.name}.wal")
        # Per-worker descriptors: table reads/updates and the foreground
        # WAL fsync are attributed to the issuing worker.  WAL *appends*
        # stay on the shared handle (worker 0), mirroring a dedicated
        # WAL-writer process — the attribution the stack always had.
        self._table_h = {}
        self._wal_h = {}
        for task in self.worker_tasks:
            self._table_h[task.pid] = yield from self.os.open(task, f"/{self.name}.db")
            self._wal_h[task.pid] = yield from self.os.open(task, f"/{self.name}.wal")
        self.os.env.process(self._checkpointer(), name=f"{self.name}-ckpt")

    def run_bench(self, duration: float, think: float = 0.002, rate_per_worker: Optional[float] = None):
        """Generator: run all workers for *duration*; returns the result.

        With *rate_per_worker* set, workers run open-loop (pgbench
        ``--rate``): transactions are issued on a fixed schedule and
        latency is measured from the scheduled start, so a checkpoint
        freeze delays every transaction issued while it lasts — the way
        the paper's latency CDF sees it.
        """
        env = self.os.env
        procs = [
            env.process(
                self._worker_loop(task, duration, think, rate_per_worker),
                name=task.name,
            )
            for task in self.worker_tasks
        ]
        for proc in procs:
            yield proc
        self._stop = True
        return PgbenchResult(self.latency.latencies, self.latency_target)

    def _worker_loop(self, task, duration: float, think: float, rate: Optional[float]):
        env = self.os.env
        end = env.now + duration
        interval = 1.0 / rate if rate else None
        scheduled = env.now
        while env.now < end:
            if interval is not None:
                scheduled += interval
                if scheduled > env.now:
                    yield env.timeout(scheduled - env.now)
                start = scheduled
            else:
                start = env.now
            yield from self._transaction(task)
            self.latency.record(env.now, env.now - start)
            if interval is None and think > 0:
                yield env.timeout(think)

    def _transaction(self, task):
        pages = self.table_bytes // PAGE_SIZE
        table = self._table_h[task.pid]
        for _ in range(self.reads_per_txn):
            page = self.rng.randrange(0, pages)
            yield from table.pread(page * PAGE_SIZE, PAGE_SIZE)
        # The row update dirties one table page (checkpoint flushes it).
        page = self.rng.randrange(0, pages)
        yield from table.pwrite(page * PAGE_SIZE, PAGE_SIZE)
        # Commit record: WAL append + foreground fsync.
        yield from self.wal.append(self.wal_record)
        yield from self._wal_h[task.pid].fsync()

    def _checkpointer(self):
        env = self.os.env
        while True:
            yield env.timeout(self.checkpoint_interval)
            if self._stop:
                return
            # Flush every dirty table page, then force it all to disk.
            # self.table is the checkpointer's own handle (prefilled
            # under checkpoint_task), so attribution is unchanged.
            yield from self.table.fsync()
            self.checkpoints += 1
