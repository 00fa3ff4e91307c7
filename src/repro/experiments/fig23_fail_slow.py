"""Figure 23 (reproduction extension): hedged dispatch under fail-slow.

The fleet-scale failure mode the original testbed never showed: one
flash channel silently degrades (a *fail-slow* fault) while its nine
siblings stay fast.  This sweep injects a single
:class:`~repro.faults.plan.ChannelFault` of increasing severity and
measures random-read tail latency with hedging off and on, at queue
depths 1, 4 and 32:

- at **depth 1** hedging is structurally inert (there is no second
  slot to race on): the sick channel owns the tail and the curves
  coincide — the depth-1 byte-identity guarantee, visible as data;
- at **depth >= 4** the health monitor's adaptive deadline (p95 x
  margin of recent service samples) flags the straggling attempts and
  the queue re-issues them on a free slot; the first completion wins,
  so p99 collapses from ~severity x base toward the healthy service
  time;
- the same sweep at depth 4 re-runs the Split-Token isolation pair
  (fig22's cell) under the worst fault, showing the throttled tenant's
  rate stays pinned while the device limps — degraded-mode repricing
  keeps token contracts honest against measured throughput.

Like every post-blk-mq figure, each cell ships a serialized
:class:`~repro.config.StackConfig` (fault plan included) to its
worker and rebuilds the stack from it.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.config import StackConfig
from repro.experiments.common import build_stack, drive, run_for
from repro.faults.plan import ChannelFault, FaultPlan
from repro.metrics.recorders import LatencyRecorder
from repro.units import GB, KB, MB, PAGE_SIZE
from repro.workloads import prefill_file

#: Service-time multipliers for the sick channel; 1 is the healthy
#: baseline (no fault injected at all).
DEFAULT_SEVERITIES = (1, 8, 32)
DEFAULT_DEPTHS = (1, 4, 32)
#: The channel the fault pins; also the dispatch slot it shadows.
SICK_CHANNEL = 0


def _stack_config(depth: int, hedge: bool, severity: float) -> StackConfig:
    plan = None
    if severity > 1:
        plan = FaultPlan(
            channel_faults=[ChannelFault(channel=SICK_CHANNEL, factor=float(severity))]
        )
    return StackConfig(
        device="ssd",
        memory_bytes=256 * MB,
        queue_depth=depth,
        hedge=hedge,
        fault_plan=plan,
        fault_seed=0,
    )


def _timed_read_thread(machine, task, path, duration, chunk, recorder, rng):
    """Random O_DIRECT reads, recording each call's syscall latency."""
    env = machine.env
    handle = yield from machine.open(task, path)
    blocks = handle.inode.size // PAGE_SIZE
    span = max(1, blocks - chunk // PAGE_SIZE)
    end = env.now + duration
    while env.now < end:
        offset = rng.randrange(0, span) * PAGE_SIZE
        start = env.now
        yield from handle.pread(offset, chunk, direct=True)
        recorder.record(env.now, env.now - start)


def latency_cell(
    config: Dict,
    threads: int = 16,
    duration: float = 2.0,
    chunk: int = 4 * KB,
    pool_bytes: int = 32 * MB,
) -> Dict:
    """Random-read latency distribution of one (depth, hedge, severity)."""
    env, machine = build_stack(StackConfig.from_dict(config))
    setup = machine.spawn("setup")

    def setup_proc():
        yield from prefill_file(machine, setup, "/pool", pool_bytes)

    drive(env, setup_proc())
    recorder = LatencyRecorder()
    for i in range(threads):
        task = machine.spawn(f"io{i}")
        env.process(
            _timed_read_thread(
                machine, task, "/pool", duration, chunk, recorder, random.Random(i)
            )
        )
    run_for(env, duration)
    queue = machine.block_queue
    out = {
        "count": recorder.count,
        "mean": recorder.mean(),
        "p50": recorder.percentile(50),
        "p95": recorder.percentile(95),
        "p99": recorder.percentile(99),
        "queue_depth": queue.queue_depth,
        "nslots": queue.nslots,
        "hedges_issued": getattr(queue, "hedges_issued", 0),
        "hedge_wins": getattr(queue, "hedge_wins", 0),
    }
    health = getattr(queue, "health", None)
    if health is not None:
        out["health_state"] = health.state
        out["degradation"] = health.degradation()
    return out


def cells(
    severities: List[float] = DEFAULT_SEVERITIES,
    depths: List[int] = DEFAULT_DEPTHS,
    threads: int = 16,
    duration: float = 2.0,
    chunk: int = 4 * KB,
    rate_limit: float = 10 * MB,
    isolation_duration: float = 10.0,
    **_ignored,
):
    """Latency cells for every (depth, hedge, severity); isolation pair.

    The isolation cells reuse fig22's Split-Token pair (B pinned to
    ``rate_limit``) at depth 4 — once healthy, once under the worst
    fail-slow severity with hedging on.
    """
    out = []
    for depth in depths:
        for hedge in (False, True):
            for severity in severities:
                config = _stack_config(depth, hedge, severity)
                label = f"latency/{depth}/{'hedged' if hedge else 'unhedged'}/{severity}"
                out.append(
                    (label, "latency_cell",
                     dict(config=config.to_dict(), threads=threads,
                          duration=duration, chunk=chunk))
                )
    worst = max(severities)
    for label, severity in (("isolation/healthy", 1), ("isolation/failslow", worst)):
        plan = None
        if severity > 1:
            plan = FaultPlan(
                channel_faults=[ChannelFault(channel=SICK_CHANNEL, factor=float(severity))]
            )
        config = StackConfig(
            device="ssd", scheduler="split-token", memory_bytes=1 * GB,
            queue_depth=4, hedge=True, fault_plan=plan, fault_seed=0,
        )
        out.append(
            (label, "repro.experiments.fig22_queue_depth:isolation_cell",
             dict(config=config.to_dict(), rate_limit=rate_limit,
                  duration=isolation_duration))
        )
    return out


def merge(
    pairs,
    severities: List[float] = DEFAULT_SEVERITIES,
    depths: List[int] = DEFAULT_DEPTHS,
    **_ignored,
) -> Dict:
    """Reassemble ordered (label, cell) pairs into the figure's output."""
    severities = list(severities)
    depths = list(depths)
    ordered = iter(pairs)
    by_depth: Dict[int, Dict[str, Dict]] = {}
    for depth in depths:
        modes: Dict[str, Dict] = {}
        for mode in ("unhedged", "hedged"):
            series = [next(ordered)[1] for _ in severities]
            modes[mode] = {
                "p99": [cell["p99"] for cell in series],
                "p50": [cell["p50"] for cell in series],
                "hedges_issued": [cell["hedges_issued"] for cell in series],
                "hedge_wins": [cell["hedge_wins"] for cell in series],
                "cells": series,
            }
        by_depth[depth] = modes
    healthy = next(ordered)[1]
    failslow = next(ordered)[1]
    return {
        "severities": severities,
        "depths": depths,
        "latency": by_depth,
        "isolation": {
            "healthy": healthy,
            "failslow": failslow,
            "b_target_mbps": healthy["b_target_mbps"],
        },
    }
