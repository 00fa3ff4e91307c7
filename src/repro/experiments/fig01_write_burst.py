"""Figure 1: a one-second random-write burst from an idle-priority
process devastates a sequential reader under CFQ; the split stack
(AFQ honouring the idle class at admission) keeps the reader fast.

Reported series: the reader's throughput per second, before/during/
after the burst, for each scheduler.
"""

from __future__ import annotations

from typing import Dict

from repro.config import StackConfig
from repro.experiments.common import build_stack, drive, run_for
from repro.metrics.recorders import TimeSeries
from repro.schedulers import make_scheduler
from repro.units import MB
from repro.workloads import prefill_file, random_write_burst, sequential_reader


def _reader_with_series(os_, task, path, duration, series):
    """Sequential reader sampling its throughput every second."""
    env = os_.env
    from repro.metrics.recorders import ThroughputTracker

    tracker = ThroughputTracker()

    def sampler():
        last = 0
        while env.now < duration:
            yield env.timeout(1.0)
            series.record(env.now, (tracker.bytes_total - last) / MB)
            last = tracker.bytes_total

    env.process(sampler(), name="sampler")
    yield from sequential_reader(os_, task, path, duration, chunk=1 * MB, tracker=tracker, cold=True)


def run(
    scheduler: str = "cfq",
    duration: float = 60.0,
    burst_bytes: int = 48 * MB,
    burst_at: float = 10.0,
    reader_file: int = 128 * MB,
    memory_bytes: int = 192 * MB,
) -> Dict:
    """Memory is sized (as in the paper, relative to the burst) so B's
    burst exceeds the background-writeback threshold: the flood of
    random writeback starts immediately and haunts the disk long after
    B finished dirtying."""
    """One run; returns the reader's per-second series and summaries."""
    if scheduler == "cfq":
        sched = make_scheduler("cfq")
    elif scheduler == "split":
        sched = make_scheduler("afq")
    else:
        raise ValueError(f"scheduler must be 'cfq' or 'split', got {scheduler!r}")

    env, machine = build_stack(StackConfig(scheduler=sched, device="hdd", memory_bytes=memory_bytes))
    setup = machine.spawn("setup")

    def setup_proc():
        yield from prefill_file(machine, setup, "/reader", reader_file)

    drive(env, setup_proc())

    reader = machine.spawn("A-reader", priority=4)
    #: B runs in the ionice *idle* class — CFQ's contract that buffered
    #: writes break.
    burster = machine.spawn("B-burster", priority=7, idle_class=True)
    series = TimeSeries("A MB/s")
    start = env.now
    env.process(_reader_with_series(machine, reader, "/reader", start + duration, series))

    def burst():
        yield env.timeout(burst_at)
        yield from random_write_burst(machine, burster, "/victim", burst_bytes, file_size=4 * burst_bytes)

    burst_proc = env.process(burst())
    run_for(env, duration)

    before = series.window_average(0, burst_at)
    after = series.window_average(burst_at + 2, duration)
    return {
        "scheduler": scheduler,
        "series_t": series.times,
        "series_mbps": series.values,
        "reader_before_mbps": before,
        "reader_after_mbps": after,
        "degradation": before / after if after > 0 else float("inf"),
        "burst_finished": not burst_proc.is_alive,
    }


def cells(**kwargs):
    """Parallelisable cells: one full run per scheduler."""
    return [(name, "run", dict(scheduler=name, **kwargs)) for name in ("cfq", "split")]


def merge(pairs, **kwargs) -> Dict[str, Dict]:
    return dict(pairs)
