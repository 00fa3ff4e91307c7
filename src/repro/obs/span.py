"""Per-request lifecycle spans assembled from stack bus events.

A :class:`SpanBuilder` subscribes to one stack's
:class:`~repro.obs.bus.StackBus` and correlates the typed events into
JSON-ready *span* records — the cross-layer, per-I/O attribution the
split framework gives its schedulers, now available to experiments and
operators:

- ``io`` spans: one per block request, from block-layer entry through
  dispatch to completion, with the queue-wait and device-service
  stages, the *cache residency* of the dirty pages the write carried
  (dirtied -> submitted), and the true cause set (pids + names);
- ``syscall`` spans: one per traced syscall (enter -> return);
- ``journal`` spans: one per transaction commit, with the joiner cause
  set — the entanglement stage of an fsync's latency;
- ``fault`` spans: one per injected device fault;
- ``health`` spans: one per device health-state transition (fail-slow
  detection) — emitted only when a monitor is attached, so untraced
  and monitor-free traces are unchanged.

All timestamps are simulated seconds, so spans are deterministic: the
same run produces the same spans regardless of host, wall-clock, or
worker process.  :func:`latency_breakdown` aggregates spans into the
per-stage (syscall / cache / journal / queue / device) percentile
tables the ``trace-report`` CLI prints.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.obs.bus import (
    BlockAdd,
    BlockComplete,
    BlockDispatch,
    FaultInjected,
    HealthTransition,
    JournalTxnCommit,
    StackBus,
    SyscallEnter,
    SyscallReturn,
)

#: The five lifecycle stages a span set decomposes latency into.
STAGES = ("syscall", "cache", "journal", "queue", "device")


class SpanBuilder:
    """Correlates bus events into per-I/O lifecycle span records.

    Attach one per stack (``SpanBuilder.attach(machine)``).  Spans
    accumulate in :attr:`spans` in completion order — a deterministic
    function of the simulation — as plain JSON-ready dicts.
    """

    def __init__(self, bus: StackBus, process_table=None):
        self.bus = bus
        self.process_table = process_table
        #: Completed span records, in event order.
        self.spans: List[Dict[str, Any]] = []
        self._open_io: Dict[int, Dict[str, Any]] = {}
        self._open_syscalls: Dict[int, Dict[str, Any]] = {}
        self._unsubs = [
            bus.subscribe(SyscallEnter, self._on_syscall_enter),
            bus.subscribe(SyscallReturn, self._on_syscall_return),
            bus.subscribe(BlockAdd, self._on_block_add),
            bus.subscribe(BlockDispatch, self._on_block_dispatch),
            bus.subscribe(BlockComplete, self._on_block_complete),
            bus.subscribe(JournalTxnCommit, self._on_txn_commit),
            bus.subscribe(FaultInjected, self._on_fault),
            bus.subscribe(HealthTransition, self._on_health),
        ]

    @classmethod
    def attach(cls, machine) -> "SpanBuilder":
        """Attach a builder to an assembled OS stack."""
        return cls(machine.bus, process_table=machine.process_table)

    def close(self) -> None:
        """Unsubscribe from the bus (spans already built are kept)."""
        for unsub in self._unsubs:
            unsub()
        self._unsubs = []

    # -- correlation --------------------------------------------------------

    def _names(self, pids: Iterable[int]) -> List[str]:
        """Resolve cause pids to task names (pid order, stable)."""
        names = []
        for pid in sorted(pids):
            task = self.process_table.get(pid) if self.process_table else None
            names.append(task.name if task is not None else f"pid{pid}")
        return names

    def _on_syscall_enter(self, event: SyscallEnter) -> None:
        info = event.info
        self._open_syscalls[event.task.pid] = {
            "kind": "syscall",
            "call": event.call,
            "task": event.task.name,
            "pid": event.task.pid,
            "start": event.time,
            "nbytes": info.get("nbytes"),
        }

    def _on_syscall_return(self, event: SyscallReturn) -> None:
        span = self._open_syscalls.pop(event.task.pid, None)
        if span is None or span["call"] != event.call:
            return  # unmatched return (builder attached mid-call)
        span["end"] = event.time
        span["duration"] = event.time - span["start"]
        span["causes"] = [event.task.pid]
        span["cause_names"] = [event.task.name]
        self.spans.append(span)

    def _on_block_add(self, event: BlockAdd) -> None:
        request = event.request
        cache_wait: Optional[float] = None
        if request.runs:
            # Cache residency: how long the oldest dirty page this
            # write carries sat in memory before heading to disk.
            ages = [
                event.time - run.dirtied_at
                for run in request.runs
                if run.dirtied_at is not None
            ]
            if ages:
                cache_wait = max(ages)
        self._open_io[request.id] = {
            "kind": "io",
            "id": request.id,
            "op": request.op,
            "block": request.block,
            "nblocks": request.nblocks,
            "bytes": request.nbytes,
            "submitter": request.submitter.name,
            "submitter_pid": request.submitter.pid,
            "sync": request.sync,
            "metadata": request.metadata,
            "submit": event.time,
            "cache_wait": cache_wait,
        }

    def _on_block_dispatch(self, event: BlockDispatch) -> None:
        span = self._open_io.get(event.request.id)
        if span is not None:
            span["dispatch"] = event.time
            # Only multi-slot queues tag spans with their slot, keeping
            # depth-1 exports byte-identical to the serial engine's.
            if event.slot is not None:
                span["slot"] = event.slot

    def _on_block_complete(self, event: BlockComplete) -> None:
        request = event.request
        span = self._open_io.pop(request.id, None)
        if span is None:
            return  # submitted before the builder attached
        dispatch = span.get("dispatch", event.time)
        pids = sorted(request.causes)
        span.update(
            complete=event.time,
            queue_wait=dispatch - span["submit"],
            device_time=event.time - dispatch,
            status=request.status,
            attempts=request.attempts,
            causes=pids,
            cause_names=self._names(pids),
        )
        self.spans.append(span)

    def _on_txn_commit(self, event: JournalTxnCommit) -> None:
        pids = sorted(event.causes)
        self.spans.append(
            {
                "kind": "journal",
                "tid": event.tid,
                "start": event.start,
                "end": event.time,
                "duration": event.time - event.start,
                "nblocks": event.nblocks,
                "ordered_inodes": event.ordered_inodes,
                "aborted": event.aborted,
                "causes": pids,
                "cause_names": self._names(pids),
            }
        )

    def _on_fault(self, event: FaultInjected) -> None:
        self.spans.append(
            {
                "kind": "fault",
                "time": event.time,
                "stream": event.stream,
                "fault": event.kind,
                "op": event.op,
            }
        )

    def _on_health(self, event: HealthTransition) -> None:
        self.spans.append(
            {
                "kind": "health",
                "time": event.time,
                "device": event.device,
                "from": event.old_state,
                "to": event.new_state,
                "ratio": event.ratio,
            }
        )


# -- aggregation -------------------------------------------------------------


def _stage_samples(spans: Iterable[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Extract per-stage latency samples from a span list."""
    samples: Dict[str, List[float]] = {stage: [] for stage in STAGES}
    for span in spans:
        kind = span.get("kind")
        if kind == "syscall":
            samples["syscall"].append(span["duration"])
        elif kind == "journal":
            samples["journal"].append(span["duration"])
        elif kind == "io":
            if span.get("cache_wait") is not None:
                samples["cache"].append(span["cache_wait"])
            samples["queue"].append(span["queue_wait"])
            samples["device"].append(span["device_time"])
    return samples


def _summarize(values: List[float]) -> Dict[str, float]:
    from repro.metrics.recorders import percentile

    if not values:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    return {
        "count": len(values),
        "mean": sum(values) / len(values),
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
    }


def bytes_by_cause(spans: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Completed I/O bytes attributed to each cause task, split evenly.

    This is the spans' answer to "who caused this I/O?" — delegated
    writes (writeback, journal commits) land on the tasks served, not
    on the kernel proxy that submitted them.
    """
    totals: Dict[str, float] = {}
    for span in spans:
        if span.get("kind") != "io" or span.get("status") != "ok":
            continue
        names = span.get("cause_names") or [str(p) for p in span.get("causes", [])]
        if not names:
            continue
        share = span["bytes"] / len(names)
        for name in names:
            totals[name] = totals.get(name, 0.0) + share
    return totals


def latency_breakdown(
    spans: Iterable[Dict[str, Any]],
    group_by: Optional[str] = None,
) -> Dict[str, Any]:
    """Aggregate spans into per-stage latency statistics.

    Returns ``{"stages": {stage: {count, mean, p50, p95, p99}},
    "by_cause": {task: bytes}, "span_counts": {kind: n}}``.  With
    ``group_by="cause"`` the stages are additionally broken down per
    cause task under ``"groups"`` — the per-task/per-scheduler view the
    issue's aggregator calls for.
    """
    spans = list(spans)
    result: Dict[str, Any] = {
        "stages": {
            stage: _summarize(values)
            for stage, values in _stage_samples(spans).items()
        },
        "by_cause": bytes_by_cause(spans),
        "span_counts": _count_kinds(spans),
    }
    if group_by == "cause":
        groups: Dict[str, List[Dict[str, Any]]] = {}
        for span in spans:
            for name in span.get("cause_names", []) or ["(untagged)"]:
                groups.setdefault(name, []).append(span)
        result["groups"] = {
            name: {
                stage: _summarize(values)
                for stage, values in _stage_samples(group).items()
            }
            for name, group in sorted(groups.items())
        }
    elif group_by is not None:
        raise ValueError(f"unsupported group_by {group_by!r}")
    return result


def _count_kinds(spans: Iterable[Dict[str, Any]]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for span in spans:
        kind = span.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
    return counts
