"""Shared plumbing for the figure/table experiments."""

from __future__ import annotations

import itertools
import os
from typing import Dict, Iterable, List, Optional

from repro.config import StackConfig
from repro.devices import HDD, SSD
from repro.sim import Environment
from repro.syscall.os import OS

#: Session-wide fault configuration: (FaultPlan, seed) or None.  Set by
#: the CLI's --fault-* flags; when None, build_stack produces exactly
#: the stack it always did (zero-cost default).
_default_fault_plan = None
#: BlockQueues built while a fault plan was active (for reporting).
_fault_queues: List = []
#: Session-wide tracing: when True, every stack built by build_stack
#: gets a SpanBuilder attached to its bus.  Off by default, in which
#: case no bus subscriber exists and the stack is byte-identical to an
#: untraced one (events are never even constructed).
_trace_enabled = False
#: SpanBuilders attached while tracing was enabled, in stack-creation
#: order (the order drain_spans concatenates).
_span_builders: List = []
#: Session-wide block-layer queue depth, set by the CLI's
#: --queue-depth flag.  StackConfigs with queue_depth=None inherit it;
#: an explicit config value always wins.
_default_queue_depth = 1
#: Session-wide hedged-dispatch flag (the CLI's --hedge).  StackConfigs
#: with hedge=None inherit it; an explicit config value always wins.
_default_hedge = False
#: Session-wide analytical fast-forward flag (the CLI's
#: --fast-forward).  StackConfigs with fast_forward=None inherit it; an
#: explicit config value always wins.
_default_fast_forward = False
#: Session-wide shard count for cluster experiments (the CLI's
#: --shards).  Sharded runs asked for ``shards=None`` inherit it.
_default_shards = 1
#: Session-wide runtime-sanitizer flag (the CLI's --sanitize).
#: StackConfigs with sanitize=None inherit it; an explicit config
#: value always wins.  The REPRO_SANITIZE environment variable seeds
#: it so a whole pytest run can be sanitized without touching argv
#: (the CI sanitized-tier1 job).
_default_sanitize = bool(os.environ.get("REPRO_SANITIZE"))
#: Fault summaries forwarded from shard worker processes (already
#: rendered to dicts — the queues live in other address spaces).
_forwarded_fault_summaries: List[Dict] = []
#: Span lists forwarded from shard worker processes, in node order.
_forwarded_spans: List[Dict] = []


def set_default_queue_depth(depth: int) -> None:
    """Install the session queue depth for stacks that don't pin one."""
    global _default_queue_depth
    if depth < 1:
        raise ValueError(f"queue depth must be >= 1, got {depth}")
    _default_queue_depth = depth


def default_queue_depth() -> int:
    """The session queue depth (1 unless --queue-depth raised it)."""
    return _default_queue_depth


def set_default_hedge(hedge: bool) -> None:
    """Install the session hedged-dispatch flag for unpinned stacks."""
    global _default_hedge
    _default_hedge = bool(hedge)


def default_hedge() -> bool:
    """The session hedge flag (False unless --hedge set it)."""
    return _default_hedge


def set_default_fast_forward(fast_forward: bool) -> None:
    """Install the session fast-forward flag for unpinned stacks."""
    global _default_fast_forward
    _default_fast_forward = bool(fast_forward)


def default_fast_forward() -> bool:
    """The session fast-forward flag (False unless --fast-forward)."""
    return _default_fast_forward


def set_default_shards(shards: int) -> None:
    """Install the session shard count for cluster runs that don't pin one."""
    global _default_shards
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    _default_shards = shards


def default_shards() -> int:
    """The session shard count (1 unless --shards raised it)."""
    return _default_shards


def set_default_sanitize(sanitize: bool) -> None:
    """Install the session runtime-sanitizer flag for unpinned stacks."""
    global _default_sanitize
    _default_sanitize = bool(sanitize)


def default_sanitize() -> bool:
    """The session sanitize flag (off unless --sanitize/REPRO_SANITIZE)."""
    return _default_sanitize


def make_environment(sanitize: Optional[bool] = None):
    """A fresh Environment — sanitized when the flag (or session) asks.

    The production :class:`~repro.sim.core.Environment` carries no
    sanitizer attribute or branch; enabling the checks swaps in the
    :class:`~repro.analysis.sanitizer.SanitizedEnvironment` subclass
    instead, so the off state is provably zero-cost.
    """
    effective = _default_sanitize if sanitize is None else sanitize
    if effective:
        from repro.analysis.sanitizer import SanitizedEnvironment

        return SanitizedEnvironment()
    return Environment()


def enable_tracing() -> None:
    """Attach a SpanBuilder to every stack built until disabled.

    Like the fault session, enabling starts a fresh trace session:
    builders from a previous session are forgotten.
    """
    global _trace_enabled
    _trace_enabled = True
    _span_builders.clear()


def disable_tracing() -> None:
    """Stop attaching span builders and forget tracked ones."""
    global _trace_enabled
    _trace_enabled = False
    _span_builders.clear()


def tracing_enabled() -> bool:
    """Is the session trace flag set?"""
    return _trace_enabled


def drain_spans() -> List[Dict]:
    """Spans of every traced stack built so far, in creation order.

    Builders are detached and forgotten, so consecutive cells in one
    process never report each other's spans.  Spans forwarded from
    shard worker processes (see :func:`add_forwarded_spans`) follow the
    locally-built stacks' spans, already merged in node order.
    """
    spans: List[Dict] = []
    for builder in _span_builders:
        spans.extend(builder.spans)
        builder.close()
    _span_builders.clear()
    spans.extend(_forwarded_spans)
    _forwarded_spans.clear()
    return spans


def add_forwarded_spans(spans: List[Dict]) -> None:
    """Register spans produced inside shard worker processes.

    A sharded run's worker shards trace their node stacks locally and
    ship the span dicts back at the end of the run; the coordinator
    registers them here so :func:`drain_spans` reports them alongside
    (after) any stacks built in this process — keeping the runner's
    cell-order merge identical whether a cell sharded or not.
    """
    _forwarded_spans.extend(spans)


def add_forwarded_fault_summaries(summaries: List[Dict]) -> None:
    """Register fault summaries produced inside shard worker processes.

    Like :func:`add_forwarded_spans`, but for the per-queue fault
    summaries of faulty node stacks built in worker shards.
    """
    _forwarded_fault_summaries.extend(summaries)


def set_default_fault_plan(plan, seed: int = 0) -> None:
    """Install *plan* for every stack built until cleared.

    Every subsequent :func:`build_stack` wraps its device in a
    :class:`~repro.faults.FaultyDevice` driven by an injector seeded
    from *seed*, and arms the plan's power loss (if any).

    Installing a plan starts a fresh fault *session*: queues tracked
    under a previous plan are forgotten, so running two experiments in
    one process never reports the first one's stacks in the second's
    :func:`drain_fault_summaries`.
    """
    global _default_fault_plan
    _default_fault_plan = (plan, seed) if plan is not None and not plan.empty else None
    _fault_queues.clear()
    _forwarded_fault_summaries.clear()


def clear_default_fault_plan() -> None:
    """Remove the session fault plan and forget tracked queues."""
    global _default_fault_plan
    _default_fault_plan = None
    _fault_queues.clear()
    _forwarded_fault_summaries.clear()


def default_fault_plan():
    """The session ``(plan, seed)`` pair, or None (for shard workers)."""
    return _default_fault_plan


def drain_fault_summaries() -> List[Dict]:
    """Fault statistics of every faulty stack built so far (and reset).

    Summaries forwarded from shard worker processes follow the locally
    tracked queues', already merged in node order.
    """
    from repro.metrics.recorders import fault_summary

    summaries = [fault_summary(queue) for queue in _fault_queues]
    _fault_queues.clear()
    summaries.extend(_forwarded_fault_summaries)
    _forwarded_fault_summaries.clear()
    return summaries


def make_device(kind: str):
    """Device factory: 'hdd' or 'ssd'."""
    if kind == "hdd":
        return HDD()
    if kind == "ssd":
        return SSD()
    raise ValueError(f"unknown device kind {kind!r}")


def reset_id_counters() -> None:
    """Restart the global Task/BlockRequest/Inode id counters at 1.

    Workload generators seed their default RNG from ``task.pid``, so a
    stack's results depend on the absolute counter values.  Resetting at
    every :func:`build_stack` gives each stack a fresh, self-contained
    id namespace: a run produces the same numbers whether it executes
    first or fifth in a batch, in-process or in a pool worker — the
    property the parallel runner's byte-identical guarantee rests on.
    """
    from repro.block.request import BlockRequest
    from repro.fs.inode import Inode
    from repro.fs.journal import Transaction
    from repro.proc import Task

    Task._pids = itertools.count(1)
    BlockRequest._ids = itertools.count(1)
    Inode._ids = itertools.count(1)
    # Transaction ids label journal spans; resetting keeps span output
    # identical whether a stack runs first or fifth in a batch.
    Transaction._tids = itertools.count(1)


def build_stack(config: StackConfig):
    """A fresh (env, OS) pair for one experimental run.

    ``build_stack(StackConfig(device="ssd", scheduler="cfq"))``: one
    declarative object names the whole machine (use
    ``config.replace(...)`` to derive a variant).

    The default memory size is deliberately smaller than the paper's
    16 GB testbed: the simulated workloads are scaled down in the same
    proportion, keeping the dirty-ratio and cache dynamics equivalent
    while the simulation stays fast.

    If the config carries a fault plan — or, failing that, a session
    fault plan is installed (see :func:`set_default_fault_plan`) — the
    device is wrapped in a fault-injecting proxy; otherwise the stack
    is byte-identical to the fault-free one.  Likewise
    ``config.queue_depth=None`` inherits the session depth (the CLI's
    ``--queue-depth``), which defaults to the classic serial 1.
    """
    env = make_environment(config.sanitize)
    machine = build_node(env, config)
    return env, machine


def build_node(env, config: StackConfig, node_index: Optional[int] = None):
    """Assemble one machine from *config* inside an existing *env*.

    The single-stack :func:`build_stack` is ``Environment()`` plus this;
    the sharded simulation core calls it once per DataNode to house a
    whole fleet partition in one shard Environment.  ``node_index``
    namespaces the node's fault RNG stream (and offsets its fault seed)
    so co-hosted nodes under one plan draw *distinct* fault sequences —
    deterministically per node, independent of which shard hosts it.
    """
    scheduler = config.make_scheduler()
    reset_id_counters()
    dev = make_device(config.device)
    plan_seed = None
    explicit_plan = config.make_fault_plan()
    if explicit_plan is not None and not explicit_plan.empty:
        plan_seed = (explicit_plan, config.fault_seed)
    elif _default_fault_plan is not None:
        plan_seed = _default_fault_plan
    injector = None
    if plan_seed is not None:
        from repro.faults import FaultInjector, FaultyDevice
        from repro.sim.rand import RandomStreams

        plan, seed = plan_seed
        if node_index is not None:
            seed = seed + 7919 * node_index
            stream_name = f"faults.node{node_index}.{dev.name}"
        else:
            stream_name = f"faults.{dev.name}"
        streams = RandomStreams(seed)
        injector = FaultInjector(env, plan, streams, stream_name=stream_name)
        dev = FaultyDevice(dev, injector)
    queue_depth = (
        config.queue_depth if config.queue_depth is not None else _default_queue_depth
    )
    hedge = config.hedge if config.hedge is not None else _default_hedge
    fast_forward = (
        config.fast_forward
        if config.fast_forward is not None
        else _default_fast_forward
    )
    os_kwargs = dict(
        device=dev,
        scheduler=scheduler,
        memory_bytes=config.memory_bytes,
        cores=config.cores,
        writeback_enabled=config.writeback_enabled,
        writeback_config=config.make_writeback_config(),
        queue_depth=queue_depth,
        hedge=hedge,
        health=config.health,
        fast_forward=fast_forward,
    )
    fs_class = config.make_fs_class()
    if fs_class is not None:
        os_kwargs["fs_class"] = fs_class
    machine = OS(env, **os_kwargs)
    if injector is not None:
        injector.arm_power_loss()
        _fault_queues.append(machine.block_queue)
    if _trace_enabled:
        from repro.obs import SpanBuilder

        _span_builders.append(SpanBuilder.attach(machine))
    sanitize = config.sanitize if config.sanitize is not None else _default_sanitize
    if sanitize:
        from repro.analysis.sanitizer import attach_sanitizer

        attach_sanitizer(machine)
    return machine


def settle(env, proc) -> None:
    """Run the simulation until *proc* (a setup Process) completes."""
    env.run(until=proc)


def drive(env, generator):
    """Run one generator to completion and return its value."""
    proc = env.process(generator)
    env.run(until=proc)
    return proc.value


def run_for(env, duration: float) -> None:
    """Advance the simulation by *duration* seconds."""
    env.run(until=env.now + duration)


def format_table(headers: List[str], rows: Iterable[Iterable]) -> str:
    """Simple fixed-width table used by the benchmark printers."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
