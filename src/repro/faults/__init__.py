"""Deterministic fault injection for the simulated storage stack.

A declarative :class:`FaultPlan` describes what can go wrong on a
device (transient read/write errors, scheduled failure windows, latency
degradation, stalls, a power cut); a :class:`FaultInjector` draws every
decision from a seeded :class:`~repro.sim.rand.RandomStreams` stream so
fault sequences are reproducible; and :class:`FaultyDevice` composes
the two with any existing device model.  Failures propagate up the
stack: the block layer retries with exponential backoff and per-request
timeouts, exhausted requests surface as :class:`EIO` at the syscall
layer, failed writes re-dirty their pages, and a power loss halts the
environment for a journal :func:`recovery pass <recover>` checked
against the ordered-mode invariant.
"""

from repro.faults.errors import EIO, MediumError, PowerLoss
from repro.lazy import lazy_exports

# Every stack raises and catches the errors; the rest loads on first use.
__getattr__ = lazy_exports(__name__, {
    "repro.faults.device": ("FaultyDevice",),
    "repro.faults.injector": ("CLEAN", "FaultDecision", "FaultInjector"),
    "repro.faults.plan": ("ChannelFault", "FaultPlan", "FaultWindow", "Hiccup", "SlowWindow"),
    "repro.faults.recovery": (
        "DurabilityLog", "RecoveryReport", "crash", "crash_and_recover", "recover",
    ),
})

__all__ = [
    "CLEAN",
    "ChannelFault",
    "DurabilityLog",
    "EIO",
    "FaultDecision",
    "FaultInjector",
    "FaultPlan",
    "FaultWindow",
    "FaultyDevice",
    "Hiccup",
    "MediumError",
    "PowerLoss",
    "RecoveryReport",
    "SlowWindow",
    "crash",
    "crash_and_recover",
    "recover",
]
