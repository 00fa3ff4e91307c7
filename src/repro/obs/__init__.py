"""`repro.obs`: the cross-layer instrumentation bus and lifecycle spans.

One :class:`StackBus` per simulated stack carries typed events from
every layer (syscall, journal, block, device, faults); a
:class:`SpanBuilder` correlates them — via cause tags and request ids —
into per-I/O lifecycle spans, and :func:`latency_breakdown` aggregates
spans into the syscall/cache/journal/queue/device stage statistics the
``trace-report`` CLI prints.  Zero-cost when nothing subscribes.
"""

from repro.obs.bus import (
    EVENT_TYPES,
    BlockAdd,
    BlockComplete,
    BlockDispatch,
    DeviceDone,
    DeviceStart,
    FaultInjected,
    HealthTransition,
    JournalCommitRecord,
    JournalTxnCommit,
    StackBus,
    SyscallEnter,
    SyscallReturn,
)
from repro.lazy import lazy_exports

# Spans and their export load on first use: a stack that is not traced
# never imports them.
__getattr__ = lazy_exports(__name__, {
    "repro.obs.export": (
        "SpanSchemaError", "format_report", "load_spans", "validate_span", "write_spans",
    ),
    "repro.obs.span": ("STAGES", "SpanBuilder", "bytes_by_cause", "latency_breakdown"),
})

__all__ = [
    "EVENT_TYPES",
    "STAGES",
    "BlockAdd",
    "BlockComplete",
    "BlockDispatch",
    "DeviceDone",
    "DeviceStart",
    "FaultInjected",
    "HealthTransition",
    "JournalCommitRecord",
    "JournalTxnCommit",
    "SpanBuilder",
    "SpanSchemaError",
    "StackBus",
    "SyscallEnter",
    "SyscallReturn",
    "bytes_by_cause",
    "format_report",
    "latency_breakdown",
    "load_spans",
    "validate_span",
    "write_spans",
]
