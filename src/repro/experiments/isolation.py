"""Shared runner for the token-bucket isolation experiments
(Figures 6, 13, 14, 16): an unthrottled sequential reader A alongside
a throttled process B running some I/O pattern.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from repro.config import StackConfig
from repro.experiments.common import build_stack, drive, run_for
from repro.metrics.recorders import ThroughputTracker
from repro.units import GB, KB, MB
from repro.workloads import (
    prefill_file,
    run_pattern_reader,
    run_pattern_writer,
    sequential_overwriter,
    sequential_reader,
    sequential_writer,
)

#: The six B workloads of Figure 14.
SIX_WORKLOADS = ("read-mem", "read-seq", "read-rand", "write-mem", "write-seq", "write-rand")


def make_scheduler(kind: str):
    from repro.schedulers import make_scheduler as registry_make

    if kind == "scs":
        return registry_make("scs-token")
    if kind == "split":
        return registry_make("split-token")
    raise ValueError(f"scheduler must be 'scs' or 'split', got {kind!r}")


def _b_workload(machine, task, workload: str, duration: float, tracker, b_file: int):
    """Build B's process generator for one of the six named workloads."""
    if workload == "read-mem":
        # Re-read a small, fully-cached region in 4 KB calls: the
        # workload is then syscall-bound, which is exactly where SCS's
        # per-call bookkeeping hurts (Figure 14's read-mem gap).
        return sequential_reader(machine, task, "/bsmall", duration, chunk=4 * KB, tracker=tracker)
    if workload == "read-seq":
        return run_pattern_reader(machine, task, "/bdata", b_file // 4, duration, tracker=tracker)
    if workload == "read-rand":
        return run_pattern_reader(machine, task, "/bdata", 4 * KB, duration, tracker=tracker)
    if workload == "write-mem":
        return sequential_overwriter(machine, task, "/bsmall", duration, region=4 * MB, tracker=tracker)
    if workload == "write-seq":
        return sequential_writer(machine, task, "/bgrow", duration, chunk=256 * KB, tracker=tracker)
    if workload == "write-rand":
        return run_pattern_writer(machine, task, "/bdata", 4 * KB, duration, tracker=tracker)
    raise ValueError(f"unknown workload {workload!r}")


def run_pair(
    scheduler_kind: str,
    b_workload: str,
    rate_limit: float,
    duration: float = 20.0,
    a_file: int = 128 * MB,
    b_file: int = 512 * MB,
    memory_bytes: int = 4 * GB,
    device: str = "hdd",
    fs_class=None,
    b_threads: int = 1,
) -> Dict:
    """One (scheduler, B-workload) cell: returns A and B throughputs.

    Memory is sized so a throttled writer's dirty data stays below the
    background-writeback threshold for the whole run, as in the
    paper's 16 GB testbed — that absorption is what makes buffered
    writes look cheap to A.
    """
    scheduler = make_scheduler(scheduler_kind)
    env, machine = build_stack(
        StackConfig(scheduler=scheduler, device=device, memory_bytes=memory_bytes, fs=fs_class)
    )
    setup = machine.spawn("setup")

    def setup_proc():
        yield from prefill_file(machine, setup, "/a", a_file)
        yield from prefill_file(machine, setup, "/bdata", b_file)
        yield from prefill_file(machine, setup, "/bsmall", 4 * MB, drop=False)

    drive(env, setup_proc())

    a = machine.spawn("A")
    b_tasks = [machine.spawn(f"B{i}") for i in range(b_threads)]
    scheduler.set_limit(b_tasks if b_threads > 1 else b_tasks[0], rate_limit)

    a_tracker = ThroughputTracker("A")
    b_tracker = ThroughputTracker("B")
    env.process(sequential_reader(machine, a, "/a", duration, chunk=1 * MB, tracker=a_tracker, cold=True))
    for task in b_tasks:
        env.process(_b_workload(machine, task, b_workload, duration, b_tracker, b_file))
    run_for(env, duration)

    return {
        "a_mbps": a_tracker.rate(until=env.now) / MB,
        "b_mbps": b_tracker.rate(until=env.now) / MB,
    }


def sweep_cells(
    scheduler_kind: str,
    run_sizes: List[int],
    rate_limit: float,
    modes: Tuple[str, ...] = ("read", "write"),
    **kwargs,
):
    """Cells of a Figures 6/13/16 sweep: one per (mode, run size).

    Returned in the same (label, func, kwargs) form the parallel runner
    consumes; ``func`` is module-qualified because the cell body lives
    here rather than in the figure modules.
    """
    return [
        (f"{mode}/{run_bytes}", "repro.experiments.isolation:_run_pattern_cell",
         dict(scheduler_kind=scheduler_kind, mode=mode, run_bytes=run_bytes,
              rate_limit=rate_limit, **kwargs))
        for mode in modes
        for run_bytes in run_sizes
    ]


def merge_sweep(
    pairs,
    run_sizes: List[int],
    modes: Tuple[str, ...] = ("read", "write"),
) -> Dict:
    """Reassemble ordered (label, cell) pairs into the sweep's output."""
    a_rates: Dict[str, List[float]] = {mode: [] for mode in modes}
    b_rates: Dict[str, List[float]] = {mode: [] for mode in modes}
    ordered = iter(pairs)
    for mode in modes:
        for _run_bytes in run_sizes:
            _label, cell = next(ordered)
            a_rates[mode].append(cell["a_mbps"])
            b_rates[mode].append(cell["b_mbps"])
    all_a = [rate for series in a_rates.values() for rate in series]
    return {
        "run_sizes": list(run_sizes),
        "a_mbps": a_rates,
        "b_mbps": b_rates,
        "a_stdev_mb": statistics.pstdev(all_a),
        "a_mean_mb": statistics.mean(all_a),
    }


def _run_pattern_cell(
    scheduler_kind: str,
    mode: str,
    run_bytes: int,
    rate_limit: float,
    duration: float = 20.0,
    a_file: int = 128 * MB,
    b_file: int = 512 * MB,
    memory_bytes: int = 4 * GB,
    device: str = "hdd",
    fs_class=None,
) -> Dict:
    scheduler = make_scheduler(scheduler_kind)
    env, machine = build_stack(
        StackConfig(scheduler=scheduler, device=device, memory_bytes=memory_bytes, fs=fs_class)
    )
    setup = machine.spawn("setup")

    def setup_proc():
        yield from prefill_file(machine, setup, "/a", a_file)
        yield from prefill_file(machine, setup, "/bdata", b_file)

    drive(env, setup_proc())
    a, b = machine.spawn("A"), machine.spawn("B")
    scheduler.set_limit(b, rate_limit)
    a_tracker, b_tracker = ThroughputTracker(), ThroughputTracker()
    env.process(sequential_reader(machine, a, "/a", duration, chunk=1 * MB, tracker=a_tracker, cold=True))
    if mode == "read":
        env.process(run_pattern_reader(machine, b, "/bdata", run_bytes, duration, tracker=b_tracker))
    else:
        env.process(run_pattern_writer(machine, b, "/bdata", run_bytes, duration, tracker=b_tracker))
    run_for(env, duration)
    return {
        "a_mbps": a_tracker.rate(until=env.now) / MB,
        "b_mbps": b_tracker.rate(until=env.now) / MB,
    }
