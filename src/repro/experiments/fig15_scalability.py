"""Figure 15: Split-Token scalability with many throttled threads.

A's throughput is steady no matter how many B threads share the I/O
limit — for *disk* workloads.  Memory-bound and pure-spin B threads
eventually hurt A through the CPU, which an I/O scheduler cannot fix
(the paper's closing observation on CPU scheduling).
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import StackConfig
from repro.experiments.common import build_stack, drive, run_for
from repro.metrics.recorders import ThroughputTracker
from repro.schedulers import make_scheduler
from repro.units import KB, MB
from repro.workloads import (
    prefill_file,
    run_pattern_reader,
    sequential_overwriter,
    sequential_reader,
    spin_loop,
)

WORKLOADS = ("read-seq", "read-mem", "write-mem", "spin")


def _b_thread(machine, task, workload: str, duration: float):
    if workload == "read-seq":
        return run_pattern_reader(machine, task, "/bdata", 1 * MB, duration)
    if workload == "read-mem":
        return sequential_reader(machine, task, "/bsmall", duration, chunk=16 * KB)
    if workload == "write-mem":
        return sequential_overwriter(machine, task, "/bsmall", duration, region=2 * MB)
    if workload == "spin":
        return spin_loop(machine, task, duration)
    raise ValueError(f"unknown workload {workload!r}")


def run_cell(
    workload: str,
    b_threads: int,
    duration: float = 6.0,
    rate_limit: float = 1 * MB,
    cores: int = 2,
) -> Dict:
    scheduler = make_scheduler("split-token")
    # Memory is small relative to B's file so "disk" workloads really
    # hit the disk (in the paper: a 10 GB file vs 8 GB of RAM).
    env, machine = build_stack(
        StackConfig(scheduler=scheduler, device="hdd", memory_bytes=256 * MB, cores=cores)
    )
    setup = machine.spawn("setup")

    def setup_proc():
        yield from prefill_file(machine, setup, "/a", 64 * MB)
        yield from prefill_file(machine, setup, "/bdata", 768 * MB)
        yield from prefill_file(machine, setup, "/bsmall", 4 * MB, drop=False)

    drive(env, setup_proc())
    a = machine.spawn("A")
    b_tasks = [machine.spawn(f"B{i}") for i in range(b_threads)]
    if workload != "spin":
        scheduler.set_limit(b_tasks, rate_limit)  # one shared limit

    tracker = ThroughputTracker()
    env.process(sequential_reader(machine, a, "/a", duration, chunk=1 * MB, tracker=tracker, cold=True))
    for task in b_tasks:
        env.process(_b_thread(machine, task, workload, duration))
    run_for(env, duration)
    return {"a_mbps": tracker.rate(until=env.now) / MB}


def cells(thread_counts: List[int] = (1, 32, 256), workloads=WORKLOADS, **kwargs):
    """Parallelisable cells: one simulation per (workload, thread count)."""
    return [
        (f"{workload}/{count}", "run_cell",
         dict(workload=workload, b_threads=count, **kwargs))
        for workload in workloads
        for count in thread_counts
    ]


def merge(pairs, thread_counts: List[int] = (1, 32, 256), workloads=WORKLOADS, **kwargs) -> Dict:
    results: Dict = {"threads": list(thread_counts)}
    ordered = iter(pairs)
    for workload in workloads:
        results[workload] = [next(ordered)[1]["a_mbps"] for _count in thread_counts]
    return results
