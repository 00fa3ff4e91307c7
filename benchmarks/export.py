"""Standalone benchmark exporter: the simulator's performance trajectory.

Times the same hot paths as ``test_simulator_microbench.py`` with plain
``time.perf_counter`` (no pytest-benchmark dependency) and writes a
machine-readable snapshot — ``BENCH_simulator.json`` — that is committed
alongside the code.  Each PR that touches the kernel refreshes the file,
so the repo carries its own performance history.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/export.py                  # write BENCH_simulator.json
    PYTHONPATH=src python benchmarks/export.py --out bench.json
    PYTHONPATH=src python benchmarks/export.py --check BENCH_simulator.json

``--check`` reruns the microbenchmarks and fails (exit 1) if event-loop
throughput regressed more than ``--tolerance`` (default 30%) against the
baseline file — the CI smoke gate.  Absolute numbers are host-dependent;
the committed baseline is only comparable on similar hardware, which is
why the gate watches the relative trajectory, not the raw figure.

Methodology: each microbench reports the *minimum* over ``--repeats``
timed runs (default 25).  Minimum-of-N is the standard estimator for
deterministic CPU-bound work — noise is strictly additive, so the
minimum converges on the true cost.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import KB, MB, OS, SSD, Environment  # noqa: E402
from repro.block import BlockQueue, BlockRequest  # noqa: E402
from repro.block.request import READ  # noqa: E402
from repro.cache import PageCache, PageKey  # noqa: E402
from repro.core.tags import TagManager  # noqa: E402
from repro.fs import BlockMap  # noqa: E402
from repro.proc import ProcessTable, Task  # noqa: E402
from repro.schedulers import Noop  # noqa: E402

#: Simulated events per timing run of the event-loop bench.
EVENT_LOOP_TICKS = 10_000


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds of *fn* over *repeats* runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


def bench_event_loop(repeats: int) -> dict:
    """Schedule-and-dispatch cost of bare timeout events."""

    def run():
        env = Environment()

        def ticker():
            for _ in range(EVENT_LOOP_TICKS):
                yield env.timeout(0.001)

        env.process(ticker())
        env.run()

    run()  # warm-up
    best = _best_of(run, repeats)
    return {
        "events": EVENT_LOOP_TICKS,
        "us_per_event": round(best * 1e6 / EVENT_LOOP_TICKS, 4),
        "events_per_sec": round(EVENT_LOOP_TICKS / best),
    }


def bench_event_cohort(repeats: int) -> dict:
    """Same-instant event fan-out: 50 processes ticking in lock-step.

    Every tick lands 50 timeouts on one timestamp (a *cohort* of
    same-instant entries), which the run loop pops and dispatches one
    at a time in (priority, eid) order, most of them through the heap
    rather than the front slot.  The per-event cost here tracks the
    same-instant fan-out the multi-tenant experiments lean on.
    """
    workers = 50
    ticks = 200

    def run():
        env = Environment()

        def ticker():
            for _ in range(ticks):
                yield env.timeout(0.001)

        for _ in range(workers):
            env.process(ticker())
        env.run()

    run()  # warm-up
    best = _best_of(run, repeats)
    events = workers * ticks
    return {
        "events": events,
        "cohort_size": workers,
        "us_per_event": round(best * 1e6 / events, 4),
        "events_per_sec": round(events / best),
    }


def bench_cached_write_syscall(repeats: int) -> dict:
    """End-to-end pwrite() through hooks, cache, and journal join."""
    writes = 100

    def run():
        env = Environment()
        machine = OS(env, device=SSD(), scheduler=Noop(), memory_bytes=256 * MB)
        task = machine.spawn("w")

        def body():
            handle = yield from machine.creat(task, "/f")
            for _ in range(writes):
                yield from handle.pwrite(0, 4 * KB)

        proc = env.process(body())
        env.run(until=proc)

    run()
    best = _best_of(run, repeats)
    return {"writes": writes, "us_per_write": round(best * 1e6 / writes, 3)}


def bench_vfs_open_close(repeats: int) -> dict:
    """Descriptor churn: open()/close() cycles through the VFS tables.

    Opens publish no hook events by design, so this measures the pure
    bookkeeping path — fd allocation, open-file refcounts, deferred-free
    accounting — plus the per-call CPU cost event.
    """
    cycles = 2000

    def run():
        env = Environment()
        machine = OS(env, device=SSD(), scheduler=Noop(), memory_bytes=256 * MB)
        task = machine.spawn("o")

        def body():
            handle = yield from machine.creat(task, "/f")
            yield from machine.close(handle)
            for _ in range(cycles):
                handle = yield from machine.open(task, "/f")
                yield from machine.close(handle)

        proc = env.process(body())
        env.run(until=proc)

    run()
    best = _best_of(run, repeats)
    return {
        "cycles": cycles,
        "us_per_cycle": round(best * 1e6 / cycles, 3),
        "opens_per_sec": round(cycles / best),
    }


def bench_cache_mark_dirty(repeats: int) -> dict:
    pages = 1000
    env = Environment()
    cache = PageCache(env, TagManager(), memory_bytes=64 * MB)
    task = Task("w")
    counter = [0]

    def run():
        base = counter[0]
        counter[0] += pages
        for i in range(pages):
            cache.mark_dirty(PageKey(1, (base + i) % 8192), task)

    run()
    best = _best_of(run, repeats)
    return {"pages": pages, "us_per_page": round(best * 1e6 / pages, 4)}


def bench_cache_overwrite_shared(repeats: int) -> dict:
    """256 tasks each overwrite one shared 16-page dirty range.

    The fig15 write-mem pattern, one range call per write: once every
    page's cause set holds all 256 writers, an overwrite adds no pid,
    so it must neither copy the set nor re-price its tag.
    """
    tasks, pages = 256, 16
    env = Environment()
    cache = PageCache(env, TagManager(), memory_bytes=64 * MB)
    writers = [Task(f"w{i}") for i in range(tasks)]
    block_map = BlockMap({i: i for i in range(pages)})

    def run():
        for task in writers:
            cache.mark_dirty_range(1, 0, pages, block_map, task)

    run()  # the warm-up pass builds the shared 256-pid sets
    best = _best_of(run, repeats)
    return {"tasks": tasks, "pages": pages, "us_per_page": round(best * 1e6 / (tasks * pages), 4)}


def bench_cache_hit_lookup(repeats: int) -> dict:
    """One read's range lookup over resident pages (every page a hit)."""
    lookups = 4096
    env = Environment()
    cache = PageCache(env, TagManager(), memory_bytes=64 * MB)
    block_map = BlockMap({i: i for i in range(lookups)})
    cache.insert_clean_run(1, block_map.runs())

    def run():
        cache.lookup_range(1, 0, lookups, block_map)

    run()
    best = _best_of(run, repeats)
    return {"lookups": lookups, "us_per_lookup": round(best * 1e6 / lookups, 4)}


def bench_mq_dispatch(repeats: int) -> dict:
    """Multi-queue dispatch engine: depth-32 SSD, small random reads.

    Exercises the slot loops, kick fan-out, and outstanding-list
    bookkeeping the blk-mq refactor added — the host-time cost per
    request through the whole block layer at high concurrency.
    """
    requests = 2000
    depth = 32

    def run():
        env = Environment()
        table = ProcessTable()
        queue = BlockQueue(env, SSD(), Noop(), process_table=table, queue_depth=depth)
        task = table.spawn("io")

        def submitter():
            events = [
                queue.submit(BlockRequest(READ, (i * 8) % 100_000, 1, task))
                for i in range(requests)
            ]
            for event in events:
                yield event

        proc = env.process(submitter())
        env.run(until=proc)

    run()
    best = _best_of(run, repeats)
    return {
        "requests": requests,
        "queue_depth": depth,
        "us_per_request": round(best * 1e6 / requests, 3),
        "requests_per_sec": round(requests / best),
    }


def bench_shard_sync(repeats: int) -> dict:
    """Epoch-barrier overhead of the sharded simulation core.

    Steps a 4-node, 2-shard fleet (inline vehicles — no process startup
    noise) through 1000 conservative-sync epochs with no client
    traffic, so the time measured is purely the coordination machinery:
    channel window scans, per-shard injection, event-loop advances to
    the barrier, and outbox drains.  ``epochs_per_sec`` is the gated
    metric; real cluster runs add workload cost on top of this floor.
    """
    from repro.config import ClusterConfig, TenantContract
    from repro.sim.shard import ShardedRun

    epochs = 1000
    link = 0.5e-3
    cluster = ClusterConfig(
        nodes=4, replication=2, link_latency=link,
        tenants=(TenantContract("idle"),),
    )

    stepped = [epochs]

    def run():
        sharded = ShardedRun(cluster, [], duration=epochs * link, shards=2)
        sharded.run()
        stepped[0] = sharded.epochs_run  # ±1 of `epochs` (float boundary)

    run()  # warm-up
    best = _best_of(run, repeats)
    return {
        "epochs": stepped[0],
        "shards": 2,
        "nodes": 4,
        "us_per_epoch": round(best * 1e6 / stepped[0], 3),
        "epochs_per_sec": round(stepped[0] / best),
    }


MICROBENCHES = {
    "event_loop": bench_event_loop,
    "event_cohort": bench_event_cohort,
    "cached_write_syscall": bench_cached_write_syscall,
    "vfs_open_close": bench_vfs_open_close,
    "cache_mark_dirty": bench_cache_mark_dirty,
    "cache_overwrite_shared": bench_cache_overwrite_shared,
    "cache_hit_lookup": bench_cache_hit_lookup,
    "mq_dispatch": bench_mq_dispatch,
    "shard_sync": bench_shard_sync,
}

#: Representative experiments timed for the suite wall-clock entry —
#: small enough for a CI smoke job, end-to-end enough to catch a
#: regression the microbenches miss.
SUITE_KEYS = ("fig01", "fig12")


def bench_suite(jobs: int = 1) -> dict:
    """Wall-clock of a representative run-all subset (serial by default)."""
    from repro.experiments import runner

    t0 = time.perf_counter()
    outcomes = runner.run_experiments([(key, None) for key in SUITE_KEYS], jobs=jobs)
    wall = time.perf_counter() - t0
    return {
        "experiments": list(SUITE_KEYS),
        "jobs": jobs,
        "wall_seconds": round(wall, 2),
        "serial_equivalent_seconds": round(
            sum(outcome.seconds for outcome in outcomes.values()), 2
        ),
    }


def bench_full_suite(jobs: int = 1) -> dict:
    """Wall-clock of every registered experiment (opt-in: minutes).

    The subset timing above keeps CI honest; this one records the real
    cost of a complete reproduction run whenever a PR refreshes the
    committed snapshot with ``--full-suite``.
    """
    from repro.experiments import EXPERIMENTS, runner

    keys = sorted(EXPERIMENTS)
    t0 = time.perf_counter()
    outcomes = runner.run_experiments([(key, None) for key in keys], jobs=jobs)
    wall = time.perf_counter() - t0
    return {
        "experiments": len(keys),
        "jobs": jobs,
        "wall_seconds": round(wall, 2),
        "serial_equivalent_seconds": round(
            sum(outcome.seconds for outcome in outcomes.values()), 2
        ),
    }


def collect(
    repeats: int, with_suite: bool = True, jobs: int = 1, full_suite: bool = False
) -> dict:
    payload = {
        "schema": 1,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "methodology": f"min of {repeats} timed runs per microbench",
        "benchmarks": {},
    }
    for name, fn in MICROBENCHES.items():
        print(f"bench {name} ...", file=sys.stderr)
        payload["benchmarks"][name] = fn(repeats)
    if with_suite:
        print(f"bench suite {SUITE_KEYS} ...", file=sys.stderr)
        payload["suite"] = bench_suite(jobs=jobs)
    if full_suite:
        print("bench full suite (all experiments) ...", file=sys.stderr)
        payload["full_suite"] = bench_full_suite(jobs=jobs)
    return payload


#: Throughput metrics the --check gate watches: bench name -> rate key
#: (higher is better for every gated metric).
GATED_METRICS = (
    ("event_loop", "events_per_sec"),
    ("event_cohort", "events_per_sec"),
    ("mq_dispatch", "requests_per_sec"),
    ("vfs_open_close", "opens_per_sec"),
    ("shard_sync", "epochs_per_sec"),
)


def check_against(baseline_path: str, current: dict, tolerance: float) -> int:
    """Exit status for the throughput regression gates.

    Gates event-loop event throughput and depth-32 dispatch-engine
    request throughput; a gated bench missing from the baseline file is
    skipped (older snapshots predate it).
    """
    baseline = json.loads(Path(baseline_path).read_text())
    failed = 0
    for name, key in GATED_METRICS:
        base_entry = baseline["benchmarks"].get(name)
        if base_entry is None:
            print(f"{name}: no baseline entry, skipping gate", file=sys.stderr)
            continue
        base_rate = base_entry[key]
        new_rate = current["benchmarks"][name][key]
        floor = base_rate * (1.0 - tolerance)
        verdict = "OK" if new_rate >= floor else "REGRESSION"
        print(
            f"{name}: {new_rate:,} /s vs baseline {base_rate:,} "
            f"(floor {floor:,.0f}, tolerance {tolerance:.0%}) -> {verdict}",
            file=sys.stderr,
        )
        if new_rate < floor:
            failed += 1
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_simulator.json",
        help="output path (default: BENCH_simulator.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=25,
        help="timed runs per microbench; the minimum is reported (default 25)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="compare against a baseline JSON; exit 1 if event-loop "
             "throughput regressed beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional event-loop throughput drop for --check "
             "(default 0.30)",
    )
    parser.add_argument(
        "--no-suite", action="store_true",
        help="skip the end-to-end suite wall-clock timing",
    )
    parser.add_argument(
        "--full-suite", action="store_true",
        help="also time a complete run of every experiment (minutes; "
             "kept out of CI)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the suite timing (default 1)",
    )
    args = parser.parse_args(argv)

    current = collect(
        args.repeats, with_suite=not args.no_suite, jobs=args.jobs,
        full_suite=args.full_suite,
    )
    Path(args.out).write_text(json.dumps(current, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    for name, stats in current["benchmarks"].items():
        print(f"  {name}: {stats}", file=sys.stderr)

    if args.check:
        return check_against(args.check, current, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
