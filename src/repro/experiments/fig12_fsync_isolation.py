"""Figure 12: fsync latency isolation, Block-Deadline vs Split-Deadline.

Thread A appends 4 KB + fsync (database log); thread B writes 1024
random blocks then fsyncs (database checkpoint).  With Block-Deadline,
A's fsyncs during B's floods take ~10× their goal; Split-Deadline
defers B's fsync, drains its data asynchronously, and keeps A near its
deadline.  Run on both HDD and SSD (Table 3 deadline settings).
"""

from __future__ import annotations

import random
from typing import Dict

from repro.config import StackConfig
from repro.experiments.common import build_stack, drive, run_for
from repro.metrics.recorders import LatencyRecorder
from repro.schedulers import make_scheduler
from repro.units import KB, MB, PAGE_SIZE
from repro.workloads import fsync_appender, prefill_file

#: Table 3: deadline settings (seconds).
TABLE3 = {
    "hdd": {"a_fsync": 0.1, "b_fsync": 5.0, "block_write": 0.02, "block_read": 0.05},
    "ssd": {"a_fsync": 0.02, "b_fsync": 1.0, "block_write": 0.005, "block_read": 0.01},
}


def _checkpointer(os_, task, path, blocks, duration, recorder, rng, pause):
    """B: write *blocks* random blocks, fsync, pause, repeat."""
    env = os_.env
    handle = yield from os_.open(task, path)
    size = handle.inode.size
    end = env.now + duration
    while env.now < end:
        for _ in range(blocks):
            offset = rng.randrange(0, size // PAGE_SIZE) * PAGE_SIZE
            yield from handle.pwrite(offset, PAGE_SIZE)
        start = env.now
        yield from handle.fsync()
        recorder.record(env.now, env.now - start)
        yield env.timeout(pause)


def run(
    scheduler: str = "split",
    device: str = "hdd",
    duration: float = 30.0,
    b_blocks: int = 1024,
    b_pause: float = 2.0,
    b_file: int = 128 * MB,
    seed: int = 0,
) -> Dict:
    settings = TABLE3[device]
    if scheduler == "block":
        sched = make_scheduler(
            "block-deadline",
            read_deadline=settings["block_read"], write_deadline=settings["block_write"],
        )
    elif scheduler == "split":
        sched = make_scheduler(
            "split-deadline",
            read_deadline=settings["block_read"], fsync_deadline=settings["a_fsync"],
        )
    else:
        raise ValueError(f"scheduler must be 'block' or 'split', got {scheduler!r}")

    env, machine = build_stack(StackConfig(scheduler=sched, device=device))
    setup = machine.spawn("setup")

    def setup_proc():
        yield from prefill_file(machine, setup, "/log", 4 * KB)
        yield from prefill_file(machine, setup, "/db", b_file)

    drive(env, setup_proc())

    a = machine.spawn("A-logger")
    b = machine.spawn("B-checkpointer")
    if scheduler == "split":
        sched.set_fsync_deadline(a, settings["a_fsync"])
        sched.set_fsync_deadline(b, settings["b_fsync"])

    a_rec, b_rec = LatencyRecorder("A"), LatencyRecorder("B")
    env.process(fsync_appender(machine, a, "/log", duration, recorder=a_rec))
    env.process(
        _checkpointer(machine, b, "/db", b_blocks, duration, b_rec, random.Random(seed), b_pause)
    )
    run_for(env, duration)

    goal = settings["a_fsync"]
    return {
        "scheduler": scheduler,
        "device": device,
        "a_goal_ms": 1000 * goal,
        "a_mean_ms": 1000 * a_rec.mean() if a_rec.count else None,
        "a_p95_ms": 1000 * a_rec.percentile(95) if a_rec.count else None,
        "a_max_ms": 1000 * a_rec.max() if a_rec.count else None,
        "a_over_2x_goal": a_rec.over(2 * goal),
        "a_count": a_rec.count,
        "b_count": b_rec.count,
        "b_mean_ms": 1000 * b_rec.mean() if b_rec.count else None,
        "a_samples": [(t, 1000 * lat) for t, lat in a_rec.samples],
    }


def cells(device: str = "hdd", **kwargs):
    """Parallelisable cells: one full run per scheduler."""
    return [
        (name, "run", dict(scheduler=name, device=device, **kwargs))
        for name in ("block", "split")
    ]


def merge(pairs, **kwargs) -> Dict[str, Dict]:
    return dict(pairs)
