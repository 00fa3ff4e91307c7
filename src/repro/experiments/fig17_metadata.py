"""Figure 17: metadata-intensive workloads expose partial integration.

A reads sequentially (unthrottled); B repeatedly creates an empty file
and fsyncs it — pure metadata/journal I/O — sleeping between creates.
On fully-integrated ext4 the journal writes carry B's tag, so B is
throttled and A isolated regardless of B's sleep time.  On partially-
integrated XFS the journal I/O is attributed to the journal task:
B escapes its limit and A's throughput tracks B's create rate.
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import StackConfig
from repro.experiments.common import build_stack, drive, run_for
from repro.fs.xfs import XFS
from repro.metrics.recorders import ThroughputTracker
from repro.schedulers import make_scheduler
from repro.units import GB, MB
from repro.workloads import prefill_file, sequential_reader


def _creator(machine, task, duration: float, sleep: float, counter: List[int]):
    env = machine.env
    end = env.now + duration
    index = 0
    while env.now < end:
        path = f"/meta-{task.pid}-{index}"
        handle = yield from machine.creat(task, path)
        yield from handle.fsync()
        counter[0] += 1
        index += 1
        if sleep > 0:
            yield env.timeout(sleep)


def run_cell(
    fs_name: str,
    sleep: float,
    duration: float = 15.0,
    rate_limit: float = 1 * MB,
) -> Dict:
    scheduler = make_scheduler("split-token")
    fs_class = XFS if fs_name == "xfs" else None
    env, machine = build_stack(
        StackConfig(scheduler=scheduler, device="hdd", memory_bytes=1 * GB, fs=fs_class)
    )
    setup = machine.spawn("setup")

    def setup_proc():
        yield from prefill_file(machine, setup, "/a", 64 * MB)

    drive(env, setup_proc())
    a, b = machine.spawn("A"), machine.spawn("B")
    scheduler.set_limit(b, rate_limit)

    tracker = ThroughputTracker()
    creates = [0]
    env.process(sequential_reader(machine, a, "/a", duration, chunk=1 * MB, tracker=tracker, cold=True))
    env.process(_creator(machine, b, duration, sleep, creates))
    run_for(env, duration)
    return {
        "a_mbps": tracker.rate(until=env.now) / MB,
        "b_creates_per_sec": creates[0] / duration,
    }


def cells(
    sleeps: List[float] = (0.0, 0.002, 0.008, 0.032),
    filesystems=("ext4", "xfs"),
    **kwargs,
):
    """Parallelisable cells: one simulation per (filesystem, sleep)."""
    return [
        (f"{fs_name}/{sleep}", "run_cell", dict(fs_name=fs_name, sleep=sleep, **kwargs))
        for fs_name in filesystems
        for sleep in sleeps
    ]


def merge(
    pairs,
    sleeps: List[float] = (0.0, 0.002, 0.008, 0.032),
    filesystems=("ext4", "xfs"),
    **kwargs,
) -> Dict:
    results: Dict = {"sleeps_ms": [1000 * s for s in sleeps]}
    ordered = iter(pairs)
    for fs_name in filesystems:
        fs_cells = [next(ordered)[1] for _sleep in sleeps]
        results[f"{fs_name}_a_mbps"] = [c["a_mbps"] for c in fs_cells]
        results[f"{fs_name}_creates_per_sec"] = [c["b_creates_per_sec"] for c in fs_cells]
    return results
