"""Recorders used by experiments and applications."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(samples: Sequence[float], p: float) -> float:
    """The *p*-th percentile (0-100) by linear interpolation."""
    if not samples:
        raise ValueError("no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high or ordered[low] == ordered[high]:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def deviation_from_ideal(actual: Dict, ideal: Dict) -> float:
    """Mean relative deviation (%) of actual shares from ideal shares.

    Used for the paper's "CFQ deviates from the ideal by 82%, AFQ by
    16%" style comparisons.  Both dicts map key -> share; shares are
    normalized internally.
    """
    if set(actual) != set(ideal):
        raise ValueError("actual and ideal must cover the same keys")
    total_actual = sum(actual.values())
    total_ideal = sum(ideal.values())
    if total_actual <= 0 or total_ideal <= 0:
        raise ValueError("shares must sum to a positive value")
    deviations = []
    for key, ideal_share in ideal.items():
        ideal_frac = ideal_share / total_ideal
        actual_frac = actual[key] / total_actual
        deviations.append(abs(actual_frac - ideal_frac) / ideal_frac)
    return 100.0 * sum(deviations) / len(deviations)


def fault_summary(queue) -> Dict[str, object]:
    """Per-device error/retry/timeout counters for one block queue.

    Combines the block layer's view (retries, timeouts, permanently
    failed requests) with the fault injector's, when the device wraps
    one.  Cheap to call at any point; used by the CLI to report fault
    statistics alongside experiment results.

    On a multi-slot queue (``queue_depth > 1`` over a multi-channel
    device) the top-level counters stay the queue-wide totals, and a
    ``"slots"`` list breaks them down per dispatch slot so concurrent
    retries stay attributable.  Single-slot summaries are unchanged.
    """
    device = queue.device
    summary: Dict[str, object] = {
        "device": device.name,
        "completed": queue.completed,
        "failed": queue.failed,
        "device_errors": queue.errors,
        "retries": queue.retries,
        "timeouts": queue.timeouts,
    }
    slots = getattr(queue, "slots", None)
    if slots is not None and len(slots) > 1:
        summary["queue_depth"] = queue.queue_depth
        summary["slots"] = [slot.summary() for slot in slots]
    if getattr(queue, "hedge", False):
        summary["hedging"] = {
            "issued": queue.hedges_issued,
            "wins": queue.hedge_wins,
            "losses": queue.hedge_losses,
        }
    health = getattr(queue, "health", None)
    if health is not None:
        summary["health"] = health.summary()
    injector = getattr(device, "injector", None)
    if injector is not None:
        summary["injected"] = injector.summary()
    return summary


class LatencyRecorder:
    """Collects (time, latency) samples for one operation stream."""

    __slots__ = ("name", "samples")

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: List[Tuple[float, float]] = []

    def record(self, at: float, latency: float) -> None:
        self.samples.append((at, latency))

    @property
    def latencies(self) -> List[float]:
        return [latency for _, latency in self.samples]

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        if not self.samples:
            raise ValueError("no samples")
        return sum(self.latencies) / len(self.samples)

    def max(self) -> float:
        return max(self.latencies)

    def percentile(self, p: float) -> float:
        return percentile(self.latencies, p)

    def over(self, threshold: float) -> float:
        """Fraction of samples exceeding *threshold*."""
        if not self.samples:
            return 0.0
        return sum(1 for latency in self.latencies if latency > threshold) / len(self.samples)


class ThroughputTracker:
    """Counts bytes over a window to report MB/s style figures."""

    __slots__ = ("name", "bytes_total", "started_at", "ended_at")

    def __init__(self, name: str = ""):
        self.name = name
        self.bytes_total = 0
        self.started_at: Optional[float] = None
        self.ended_at: Optional[float] = None

    def start(self, at: float) -> None:
        self.started_at = at

    def add(self, nbytes: int, at: float) -> None:
        if self.started_at is None:
            self.started_at = at
        self.bytes_total += nbytes
        self.ended_at = at

    def rate(self, until: Optional[float] = None) -> float:
        """Bytes/second over the observed window."""
        if self.started_at is None:
            return 0.0
        end = until if until is not None else self.ended_at
        if end is None or end <= self.started_at:
            return 0.0
        return self.bytes_total / (end - self.started_at)


class TimeSeries:
    """Periodic samples of a quantity (e.g. throughput over time)."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, at: float, value: float) -> None:
        self.times.append(at)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def window_average(self, start: float, end: float) -> float:
        values = [v for t, v in zip(self.times, self.values) if start <= t < end]
        if not values:
            return 0.0
        return sum(values) / len(values)
