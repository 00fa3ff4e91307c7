"""Figure 11: AFQ vs CFQ across four priority workloads.

(a) sequential reads — both respect priorities;
(b) async sequential writes — CFQ flat (write delegation), AFQ fair;
(c) sync random writes + fsync — CFQ flat (journal entanglement), AFQ fair;
(d) memory overwrites — both fast, no fairness goal (no disk contention).
"""

from __future__ import annotations

from typing import Dict

from repro.config import StackConfig
from repro.experiments.common import build_stack, drive, run_for
from repro.metrics.recorders import ThroughputTracker, deviation_from_ideal
from repro.schedulers import make_scheduler
from repro.units import GB, MB
from repro.workloads import (
    prefill_file,
    random_writer_fsync,
    sequential_overwriter,
    sequential_reader,
    sequential_writer,
)

IDEAL = {p: 8 - p for p in range(8)}


def _make(scheduler: str):
    if scheduler not in ("cfq", "afq"):
        raise ValueError(f"scheduler must be 'cfq' or 'afq', got {scheduler!r}")
    return make_scheduler(scheduler)


def _collect(trackers, env) -> Dict:
    rates = {p: sum(t.rate(until=env.now) for t in ts) / MB for p, ts in trackers.items()}
    total = sum(rates.values())
    return {
        "throughput_mbps": rates,
        "total_mbps": total,
        "shares_pct": {p: 100 * r / total if total else 0.0 for p, r in rates.items()},
        "deviation_pct": deviation_from_ideal(rates, IDEAL) if total else None,
    }


def run_read(scheduler: str, duration: float = 20.0, file_size: int = 64 * MB) -> Dict:
    """(a) eight priority readers, own files, sequential."""
    env, machine = build_stack(StackConfig(scheduler=_make(scheduler), device="hdd", memory_bytes=1 * GB))
    setup = machine.spawn("setup")

    def setup_proc():
        for p in range(8):
            yield from prefill_file(machine, setup, f"/r{p}", file_size)

    drive(env, setup_proc())
    trackers = {}
    for prio in range(8):
        task = machine.spawn(f"r{prio}", priority=prio)
        tracker = ThroughputTracker()
        trackers[prio] = [tracker]
        env.process(
            sequential_reader(machine, task, f"/r{prio}", duration, chunk=1 * MB, tracker=tracker, cold=True)
        )
    run_for(env, duration)
    return _collect(trackers, env)


def run_async_write(scheduler: str, duration: float = 20.0) -> Dict:
    """(b) eight priority writers, buffered sequential writes."""
    env, machine = build_stack(StackConfig(scheduler=_make(scheduler), device="hdd", memory_bytes=1 * GB))
    trackers = {}
    for prio in range(8):
        task = machine.spawn(f"w{prio}", priority=prio)
        tracker = ThroughputTracker()
        trackers[prio] = [tracker]
        env.process(
            sequential_writer(machine, task, f"/w{prio}", duration, chunk=1 * MB, tracker=tracker)
        )
    run_for(env, duration)
    return _collect(trackers, env)


def run_sync_write(
    scheduler: str, duration: float = 20.0, threads_per_priority: int = 2, file_size: int = 16 * MB
) -> Dict:
    """(c) sync random writes + fsync per thread (journal pressure)."""
    env, machine = build_stack(StackConfig(scheduler=_make(scheduler), device="hdd", memory_bytes=1 * GB))
    trackers = {p: [] for p in range(8)}
    for prio in range(8):
        for i in range(threads_per_priority):
            task = machine.spawn(f"s{prio}.{i}", priority=prio)
            tracker = ThroughputTracker()
            trackers[prio].append(tracker)
            env.process(
                random_writer_fsync(
                    machine, task, f"/s{prio}.{i}", duration + 5, file_size=file_size, tracker=tracker
                )
            )
    run_for(env, duration)
    return _collect(trackers, env)


def run_memory(scheduler: str, duration: float = 10.0) -> Dict:
    """(d) overwriting 4 MB in cache: no disk contention, both fast."""
    env, machine = build_stack(StackConfig(scheduler=_make(scheduler), device="hdd", memory_bytes=1 * GB))
    trackers = {}
    for prio in range(8):
        task = machine.spawn(f"m{prio}", priority=prio)
        tracker = ThroughputTracker()
        trackers[prio] = [tracker]
        env.process(
            sequential_overwriter(machine, task, f"/m{prio}", duration, region=4 * MB, tracker=tracker)
        )
    run_for(env, duration)
    result = _collect(trackers, env)
    result["deviation_pct"] = None  # no fairness goal (paper: no goal line)
    return result


PANELS = {
    "read": run_read,
    "async_write": run_async_write,
    "sync_write": run_sync_write,
    "memory": run_memory,
}


def run(panel: str, scheduler: str, **kwargs) -> Dict:
    try:
        runner = PANELS[panel]
    except KeyError:
        raise ValueError(f"panel must be one of {sorted(PANELS)}") from None
    return runner(scheduler, **kwargs)


def cells(**kwargs):
    """Parallelisable cells: one run per (panel, scheduler) pair."""
    return [
        (f"{panel}:{scheduler}", "run", dict(panel=panel, scheduler=scheduler, **kwargs))
        for panel in PANELS
        for scheduler in ("cfq", "afq")
    ]


def merge(pairs, **kwargs) -> Dict[str, Dict[str, Dict]]:
    merged: Dict[str, Dict[str, Dict]] = {}
    for label, result in pairs:
        panel, scheduler = label.split(":")
        merged.setdefault(panel, {})[scheduler] = result
    return merged
