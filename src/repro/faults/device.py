"""A fault-injecting device wrapper, composable with any device model.

``FaultyDevice(HDD(), injector)`` behaves exactly like the wrapped
device until the injector says otherwise: injected media errors raise
:class:`~repro.faults.errors.MediumError` (which the block layer
retries with backoff), degradation multiplies the inner service time,
and stalls add a large latency that trips the block layer's per-request
timeout.  With an empty plan the wrapper is behaviour-neutral — service
times are bit-identical to the inner device's.
"""

from __future__ import annotations

from typing import Optional

from repro.devices.base import Device
from repro.faults.errors import MediumError
from repro.faults.injector import FaultInjector


class FaultyDevice(Device):
    """Wraps any :class:`Device`, injecting faults per its plan."""

    def __init__(self, inner: Device, injector: FaultInjector, name: Optional[str] = None):
        super().__init__(capacity_blocks=inner.capacity_blocks,
                         name=name or f"faulty-{inner.name}")
        self.inner = inner
        self.injector = injector
        self.channels = inner.channels  # transparent to multi-queue dispatch

    def attach_bus(self, bus, clock) -> None:
        """Adopt the bus on the wrapper, the inner device, and the injector."""
        super().attach_bus(bus, clock)
        self.inner.attach_bus(bus, clock)
        self.injector.attach_bus(bus, clock)

    def begin_service(self) -> None:
        super().begin_service()
        self.inner.begin_service()

    def end_service(self) -> None:
        super().end_service()
        self.inner.end_service()

    def service_time(self, op: str, block: int, nblocks: int) -> float:
        self._check_bounds(block, nblocks)
        decision = self.injector.decide(op, block, nblocks, channel=self.serving_channel)
        if decision.error:
            raise MediumError(
                f"injected {op} error on {self.name} at block {block}",
                latency=self.injector.plan.error_latency,
            )
        base = self.inner.service_time(op, block, nblocks)
        duration = base * decision.slow_factor + decision.extra_latency
        if duration > base:
            self.injector.note_slowdown(duration - base)
        self._last_block_end = block + nblocks
        self._account(op, nblocks, duration)
        return duration
