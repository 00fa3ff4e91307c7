"""The per-device health monitor and its fail-slow state machine.

Fail-slow hardware does not announce itself: a device that silently
degrades drags every tenant's tail latency without tripping a single
error path.  The monitor detects the onset statistically — a fast EWMA
of per-op service latency compared against a *healthy baseline* that is
only updated while the device is believed healthy (so the baseline
cannot creep up and mask a slow decline).  State transitions require
``hysteresis`` consecutive agreeing samples, and the DEGRADED exit
threshold sits below the entry threshold, so a noisy device does not
flap between states.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.bus import DeviceDone, HealthTransition, StackBus

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

#: Health states, in degradation order.
HEALTHY = "healthy"
DEGRADED = "degraded"
FAILED = "failed"

_STATES = (HEALTHY, DEGRADED, FAILED)


@dataclass(frozen=True)
class HealthConfig:
    """Tunables of the fail-slow detector (defaults are deliberately
    conservative: ~3x sustained degradation before acting)."""

    #: Fast EWMA weight for the current service-latency estimate.
    ewma_alpha: float = 0.3
    #: Slow EWMA weight for the healthy baseline (only updated while
    #: the state machine believes the device healthy).
    baseline_alpha: float = 0.02
    #: Samples per op class before the detector may judge at all.
    warmup: int = 16
    #: EWMA/baseline ratio at which DEGRADED is entered...
    degraded_enter: float = 3.0
    #: ...and the (lower) ratio below which it is exited — the band
    #: between the two is the hysteresis dead zone.
    degraded_exit: float = 1.5
    #: Ratio at which the device is declared FAILED.
    failed_enter: float = 20.0
    #: Consecutive agreeing samples required to switch state.
    hysteresis: int = 4
    #: Recent-sample ring size for the adaptive hedging deadline.
    window: int = 128
    #: Percentile of recent samples the deadline is derived from.
    deadline_percentile: float = 95.0
    #: Multiplier over that percentile: hedge only when an attempt is
    #: clearly an outlier, not merely above-median.
    deadline_margin: float = 3.0

    def __post_init__(self):
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")
        if not 0.0 < self.baseline_alpha <= 1.0:
            raise ValueError(f"baseline_alpha must be in (0, 1], got {self.baseline_alpha}")
        if self.warmup < 1:
            raise ValueError(f"warmup must be >= 1, got {self.warmup}")
        if self.degraded_exit > self.degraded_enter:
            raise ValueError(
                f"degraded_exit ({self.degraded_exit}) must not exceed "
                f"degraded_enter ({self.degraded_enter})"
            )
        if self.failed_enter < self.degraded_enter:
            raise ValueError(
                f"failed_enter ({self.failed_enter}) must be >= "
                f"degraded_enter ({self.degraded_enter})"
            )
        if self.hysteresis < 1:
            raise ValueError(f"hysteresis must be >= 1, got {self.hysteresis}")
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        if not 0.0 < self.deadline_percentile <= 100.0:
            raise ValueError(
                f"deadline_percentile must be in (0, 100], got {self.deadline_percentile}"
            )
        if self.deadline_margin < 1.0:
            raise ValueError(f"deadline_margin must be >= 1, got {self.deadline_margin}")

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-friendly payload (StackConfig serialization)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "HealthConfig":
        return cls(**payload)


def resolve_health(health: Any):
    """Normalize a StackConfig ``health`` field value.

    Returns ``False`` (explicitly disabled), ``None`` (auto: attach
    when hedging or fault injection is active), ``True`` (attach with
    defaults), or a :class:`HealthConfig` (attach with that config).
    """
    if health is None or health is False or health is True:
        return health
    if isinstance(health, HealthConfig):
        return health
    if isinstance(health, dict):
        return HealthConfig(**health)
    raise TypeError(f"health must be None, a bool, a HealthConfig, or a dict, got {health!r}")


class _OpHealth:
    """Latency statistics for one op class ("read"/"write")."""

    __slots__ = ("count", "ewma", "baseline", "samples", "_sorted")

    def __init__(self):
        self.count = 0
        self.ewma: Optional[float] = None
        self.baseline: Optional[float] = None
        #: The most recent service latencies (the deadline source); the
        #: monitor trims it to the configured window on append.
        self.samples: List[float] = []
        self._sorted: Optional[List[float]] = None


class HealthMonitor:
    """Tracks one device's service health from its StackBus events.

    Subscribe with :meth:`attach` (or construct directly with a bus):
    every :class:`~repro.obs.bus.DeviceDone` published under the
    watched device name feeds the EWMA detector.  The monitor never
    perturbs the simulation itself, so attaching one leaves results
    byte-identical unless something reads it: with ``hedge=True`` the
    block queue takes its hedge deadline from :meth:`deadline`, so a
    hedged stack's dispatch depends on what the monitor has observed.
    """

    def __init__(
        self,
        env: "Environment",
        device_name: str,
        bus: StackBus,
        config: Optional[HealthConfig] = None,
    ):
        self.env = env
        self.device_name = device_name
        self.bus = bus
        self.config = config or HealthConfig()
        self.state = HEALTHY
        #: (time, old_state, new_state, ratio) per transition.
        self.transitions: List[Tuple[float, str, str, float]] = []
        self._ops: Dict[str, _OpHealth] = {}
        self._streak_state: Optional[str] = None
        self._streak = 0
        self.observed = 0
        self._sub_transition = bus.listeners(HealthTransition)
        self._unsub = bus.subscribe(DeviceDone, self._on_device_done)

    # -- ingestion -----------------------------------------------------------

    def _on_device_done(self, event: DeviceDone) -> None:
        if event.device != self.device_name:
            return
        self.observe(event.op, event.duration)

    def observe(self, op: str, duration: float) -> None:
        """Feed one completed service attempt into the detector."""
        stats = self._ops.get(op)
        if stats is None:
            stats = self._ops[op] = _OpHealth()
        self.observed += 1
        stats.count += 1
        if stats.ewma is None:
            stats.ewma = duration
        else:
            alpha = self.config.ewma_alpha
            stats.ewma = alpha * duration + (1.0 - alpha) * stats.ewma
        # The healthy baseline only learns while we believe the device
        # healthy (or during warmup), so a slow decline cannot drag the
        # reference along with it and hide itself.
        if stats.baseline is None:
            stats.baseline = duration
        elif self.state == HEALTHY or stats.count <= self.config.warmup:
            beta = self.config.baseline_alpha
            stats.baseline = beta * duration + (1.0 - beta) * stats.baseline
        samples = stats.samples
        samples.append(duration)
        if len(samples) > self.config.window:
            del samples[0]
        stats._sorted = None
        self._step_state_machine()

    # -- detection -----------------------------------------------------------

    def degradation(self) -> float:
        """Worst-op EWMA/baseline ratio (1.0 = healthy, judged ops only)."""
        worst = 1.0
        for stats in self._ops.values():
            if stats.count < self.config.warmup:
                continue
            if not stats.baseline or stats.ewma is None:
                continue
            ratio = stats.ewma / stats.baseline
            if ratio > worst:
                worst = ratio
        return worst

    def _desired_state(self, ratio: float) -> str:
        config = self.config
        if ratio >= config.failed_enter:
            return FAILED
        if ratio >= config.degraded_enter:
            return DEGRADED
        if ratio <= config.degraded_exit:
            return HEALTHY
        return self.state  # dead band: hold the current state

    def _step_state_machine(self) -> None:
        ratio = self.degradation()
        desired = self._desired_state(ratio)
        if desired == self.state:
            self._streak_state = None
            self._streak = 0
            return
        if desired != self._streak_state:
            self._streak_state = desired
            self._streak = 0
        self._streak += 1
        if self._streak < self.config.hysteresis:
            return
        old, self.state = self.state, desired
        self._streak_state = None
        self._streak = 0
        self.transitions.append((self.env.now, old, desired, ratio))
        if self._sub_transition:
            self.bus.publish(
                HealthTransition(self.env.now, self.device_name, old, desired, ratio)
            )

    # -- operational surface -------------------------------------------------

    def deadline(self, op: str) -> Optional[float]:
        """The adaptive hedging deadline for *op* attempts, or None.

        A latency percentile of the recent-sample window times the
        configured margin.  None until the op class has warmed up — the
        block layer then falls back to its static ``request_timeout``.
        """
        stats = self._ops.get(op)
        if stats is None or stats.count < self.config.warmup:
            return None
        cache = stats._sorted
        if cache is None:
            cache = stats._sorted = sorted(stats.samples)
        from repro.metrics.recorders import percentile

        return percentile(cache, self.config.deadline_percentile) * self.config.deadline_margin

    def billing_factor(self) -> float:
        """Measured slowdown schedulers divide service charges by.

        1.0 while HEALTHY; the live degradation ratio once the state
        machine has committed to DEGRADED/FAILED — so token contracts
        are re-priced against measured degraded throughput, and tenants
        are not billed for the device's sickness.
        """
        if self.state == HEALTHY:
            return 1.0
        return max(1.0, self.degradation())

    def close(self) -> None:
        """Unsubscribe from the bus (transitions already seen are kept)."""
        if self._unsub is not None:
            self._unsub()
            self._unsub = None

    # -- reporting -----------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly digest for ``fault_summary`` / trace export."""
        return {
            "device": self.device_name,
            "state": self.state,
            "degradation": round(self.degradation(), 4),
            "observed": self.observed,
            "transitions": [
                {
                    "time": round(time, 6),
                    "from": old,
                    "to": new,
                    "ratio": round(ratio, 4),
                }
                for time, old, new, ratio in self.transitions
            ],
            "ops": {
                op: {
                    "count": stats.count,
                    "ewma": stats.ewma,
                    "baseline": stats.baseline,
                }
                for op, stats in sorted(self._ops.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"<HealthMonitor {self.device_name} state={self.state} "
            f"degradation={self.degradation():.2f} observed={self.observed}>"
        )
