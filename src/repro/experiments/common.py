"""Shared plumbing for the figure/table experiments."""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.config import StackConfig
from repro.devices import HDD, SSD
from repro.sim import Environment
from repro.syscall.os import OS


class Session(NamedTuple):
    """The run-wide settings every stack built in this process inherits.

    One immutable value, read by :func:`build_node`,
    :func:`make_environment` and the sharded-run core; a
    :class:`~repro.config.StackConfig` field that is not ``None`` always
    wins over it.  The CLI's ``run``/``run-all`` flags build one and
    install it for the length of the command; the parallel runner hands
    the current one to its worker processes, which install it once.
    """

    #: ``(FaultPlan, seed)`` wrapping every device in a fault injector,
    #: or None: then stacks are exactly the fault-free ones.
    fault: Optional[Tuple[Any, int]] = None
    #: Attach a SpanBuilder to every stack built (the CLI's --trace).
    trace: bool = False
    #: Block-layer queue depth for stacks that do not pin one.
    queue_depth: int = 1
    #: Hedged dispatch for stacks that do not pin it.
    hedge: bool = False
    #: Runtime sanitizer for stacks that do not pin it.
    sanitize: bool = False


#: The current session.  REPRO_SANITIZE seeds ``sanitize`` so a whole
#: pytest run can be sanitized without touching argv (the sanitized
#: tier-1 CI job).
_current = Session(sanitize=bool(os.environ.get("REPRO_SANITIZE")))
#: BlockQueues built under a fault plan (for reporting).
_fault_queues: List = []
#: SpanBuilders attached under tracing, in stack-creation order (the
#: order drain_spans concatenates).
_span_builders: List = []


def session() -> Session:
    """The current run session."""
    return _current


def install(new: Session) -> Session:
    """Make *new* the current session; returns the previous one.

    An empty fault plan installs as no plan.  Installing starts fresh
    fault-queue and span registries, so two runs in one process never
    report each other's stacks, and a forked worker forgets its
    parent's.
    """
    global _current
    if new.queue_depth < 1:
        raise ValueError(f"queue depth must be >= 1, got {new.queue_depth}")
    if new.fault is not None and new.fault[0].empty:
        new = new._replace(fault=None)
    previous, _current = _current, new
    _fault_queues.clear()
    _span_builders.clear()
    return previous


@contextmanager
def using(**changes):
    """Run the with-block under the current session with *changes*.

    ``with using(queue_depth=4, fault=(plan, 7)): ...`` — the previous
    session is installed again on exit.
    """
    previous = install(_current._replace(**changes))
    try:
        yield _current
    finally:
        install(previous)


def make_environment(sanitize: Optional[bool] = None):
    """A fresh Environment — sanitized when the flag (or session) asks.

    The production :class:`~repro.sim.core.Environment` carries no
    sanitizer attribute or branch; enabling the checks swaps in the
    :class:`~repro.analysis.sanitizer.SanitizedEnvironment` subclass
    instead, so the off state is provably zero-cost.
    """
    effective = _current.sanitize if sanitize is None else sanitize
    if effective:
        from repro.analysis.sanitizer import SanitizedEnvironment

        return SanitizedEnvironment()
    return Environment()


def drain_spans() -> List[Dict]:
    """Spans of every traced stack built so far, in creation order.

    Builders are detached and forgotten, so consecutive cells in one
    process never report each other's spans.
    """
    spans: List[Dict] = []
    for builder in _span_builders:
        spans.extend(builder.spans)
        builder.close()
    _span_builders.clear()
    return spans


def drain_fault_summaries() -> List[Dict]:
    """Fault statistics of every faulty stack built so far (and reset)."""
    from repro.metrics.recorders import fault_summary

    summaries = [fault_summary(queue) for queue in _fault_queues]
    _fault_queues.clear()
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

    If the config carries a fault plan — or, failing that, the
    :class:`Session` has one — the device is wrapped in a
    fault-injecting proxy; otherwise the stack is byte-identical to the
    fault-free one.  Likewise ``config.queue_depth=None`` inherits the
    session depth (the CLI's ``--queue-depth``), which defaults to the
    classic serial 1.
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
    current = _current
    scheduler = config.make_scheduler()
    reset_id_counters()
    dev = make_device(config.device)
    plan_seed = None
    explicit_plan = config.make_fault_plan()
    if explicit_plan is not None and not explicit_plan.empty:
        plan_seed = (explicit_plan, config.fault_seed)
    elif current.fault is not None:
        plan_seed = current.fault
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
        config.queue_depth if config.queue_depth is not None else current.queue_depth
    )
    hedge = config.hedge if config.hedge is not None else current.hedge
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
    )
    fs_class = config.make_fs_class()
    if fs_class is not None:
        os_kwargs["fs_class"] = fs_class
    machine = OS(env, **os_kwargs)
    if injector is not None:
        injector.arm_power_loss()
        _fault_queues.append(machine.block_queue)
    if current.trace:
        from repro.obs import SpanBuilder

        _span_builders.append(SpanBuilder.attach(machine))
    sanitize = config.sanitize if config.sanitize is not None else current.sanitize
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
