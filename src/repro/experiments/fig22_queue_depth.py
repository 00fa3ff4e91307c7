"""Figure 22 (reproduction extension): multi-queue dispatch vs depth.

The paper's block layer — and our reproduction until the blk-mq
refactor — dispatched one request at a time.  This sweep runs the SSD
model at queue depths 1, 4 and 32 and reports two things:

- *throughput scaling*: many threads issuing small O_DIRECT random
  reads are latency-bound at depth 1; deeper tagged queuing overlaps
  the access latencies across the SSD's flash channels, so aggregate
  IOPS climb until the depth exceeds the channel count (the engine
  caps effective slots at ``device.channels``, 10 for the X25-M-like
  default);
- *isolation under depth*: the same Split-Token stack that pins B to
  ``rate_limit`` at depth 1 must still pin it at depth 32 — the
  depth-aware ``service_charge`` accounting keeps token revisions
  correct when service windows overlap.

Every cell ships a serialized :class:`~repro.config.StackConfig` to
its (possibly pooled) worker and rebuilds the stack from it — the
declarative-assembly path this figure exists to exercise.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.config import StackConfig
from repro.experiments.common import build_stack, drive, run_for
from repro.metrics.recorders import ThroughputTracker
from repro.units import GB, KB, MB, PAGE_SIZE
from repro.workloads import prefill_file, sequential_reader, sequential_writer

#: The NCQ depths the figure sweeps (32 exceeds the SSD's 10 channels,
#: demonstrating the channel cap).
DEFAULT_DEPTHS = (1, 4, 32)


def _direct_read_thread(machine, task, path, duration, chunk, tracker, rng):
    """Issue random O_DIRECT reads (cache bypassed: every call is a
    device request) until *duration* elapses."""
    env = machine.env
    handle = yield from machine.open(task, path)
    blocks = handle.inode.size // PAGE_SIZE
    span = max(1, blocks - chunk // PAGE_SIZE)
    end = env.now + duration
    while env.now < end:
        offset = rng.randrange(0, span) * PAGE_SIZE
        n = yield from handle.pread(offset, chunk, direct=True)
        tracker.add(n, env.now)


def throughput_cell(
    config: Dict,
    threads: int = 64,
    duration: float = 2.0,
    chunk: int = 4 * KB,
    pool_bytes: int = 64 * MB,
) -> Dict:
    """Aggregate random-read throughput of one depth point."""
    env, machine = build_stack(StackConfig.from_dict(config))
    setup = machine.spawn("setup")

    def setup_proc():
        yield from prefill_file(machine, setup, "/pool", pool_bytes)

    drive(env, setup_proc())
    queue = machine.block_queue
    completed_before = queue.completed
    tracker = ThroughputTracker()
    tracker.start(env.now)
    start = env.now
    for i in range(threads):
        task = machine.spawn(f"io{i}")
        env.process(
            _direct_read_thread(
                machine, task, "/pool", duration, chunk, tracker, random.Random(i)
            )
        )
    run_for(env, duration)
    elapsed = env.now - start
    completed = queue.completed - completed_before
    return {
        "mbps": tracker.rate(until=env.now) / MB,
        "iops": completed / elapsed if elapsed > 0 else 0.0,
        "queue_depth": queue.queue_depth,
        "nslots": queue.nslots,
    }


def isolation_cell(
    config: Dict,
    rate_limit: float = 10 * MB,
    duration: float = 10.0,
    a_file: int = 64 * MB,
) -> Dict:
    """Split-Token isolation at one depth: B pinned, A free."""
    env, machine = build_stack(StackConfig.from_dict(config))
    setup = machine.spawn("setup")

    def setup_proc():
        yield from prefill_file(machine, setup, "/a", a_file)

    drive(env, setup_proc())

    a = machine.spawn("A")
    b = machine.spawn("B")
    machine.scheduler.set_limit(b, rate_limit)

    a_tracker = ThroughputTracker("A")
    b_tracker = ThroughputTracker("B")
    env.process(
        sequential_reader(machine, a, "/a", duration, chunk=1 * MB,
                          tracker=a_tracker, cold=True)
    )
    env.process(
        sequential_writer(machine, b, "/bgrow", duration, chunk=256 * KB,
                          tracker=b_tracker)
    )
    run_for(env, duration)
    return {
        "a_mbps": a_tracker.rate(until=env.now) / MB,
        "b_mbps": b_tracker.rate(until=env.now) / MB,
        "b_target_mbps": rate_limit / MB,
        "queue_depth": machine.block_queue.queue_depth,
        "nslots": machine.block_queue.nslots,
    }


def cells(
    depths: List[int] = DEFAULT_DEPTHS,
    threads: int = 64,
    duration: float = 2.0,
    chunk: int = 4 * KB,
    rate_limit: float = 10 * MB,
    isolation_duration: float = 10.0,
    **_ignored,
):
    """One throughput and one isolation cell per depth.

    Each cell's kwargs carry its StackConfig as a ``to_dict`` payload —
    the serialized form pool workers rebuild with ``from_dict``.
    """
    out = []
    for depth in depths:
        config = StackConfig(device="ssd", memory_bytes=256 * MB, queue_depth=depth)
        out.append(
            (f"throughput/{depth}", "throughput_cell",
             dict(config=config.to_dict(), threads=threads,
                  duration=duration, chunk=chunk))
        )
    for depth in depths:
        config = StackConfig(
            device="ssd", scheduler="split-token",
            memory_bytes=1 * GB, queue_depth=depth,
        )
        out.append(
            (f"isolation/{depth}", "isolation_cell",
             dict(config=config.to_dict(), rate_limit=rate_limit,
                  duration=isolation_duration))
        )
    return out


def merge(pairs, depths: List[int] = DEFAULT_DEPTHS, **_ignored) -> Dict:
    """Reassemble ordered (label, cell) pairs into the figure's output."""
    depths = list(depths)
    ordered = iter(pairs)
    throughput = [cell for _label, cell in (next(ordered) for _ in depths)]
    isolation = [cell for _label, cell in (next(ordered) for _ in depths)]
    base = throughput[0]["mbps"] or 1.0
    return {
        "depths": depths,
        "nslots": [cell["nslots"] for cell in throughput],
        "throughput_mbps": [cell["mbps"] for cell in throughput],
        "iops": [cell["iops"] for cell in throughput],
        "scaling": [cell["mbps"] / base for cell in throughput],
        "isolation": {
            "a_mbps": [cell["a_mbps"] for cell in isolation],
            "b_mbps": [cell["b_mbps"] for cell in isolation],
            "b_target_mbps": isolation[0]["b_target_mbps"],
        },
    }
