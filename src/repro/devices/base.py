"""Abstract device interface and statistics."""

from __future__ import annotations

from typing import Optional

from repro.obs.bus import DeviceDone, StackBus
from repro.units import PAGE_SIZE


class DeviceError(Exception):
    """A device-level failure.

    Raised for malformed requests (bad bounds) and by fault-injecting
    device models for media errors.  ``retryable`` tells the block
    layer whether a retry could succeed (a media error might clear; a
    bounds violation never will), and ``latency`` is the time the
    failed attempt occupied the device before the error was reported.
    """

    retryable = False

    def __init__(self, message: str, latency: float = 0.0):
        super().__init__(message)
        self.latency = latency


class DeviceStats:
    """Aggregate counters maintained by every device model."""

    def __init__(self):
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.busy_time = 0.0
        self.seeks = 0

    @property
    def total_requests(self) -> int:
        return self.reads + self.writes

    def __repr__(self) -> str:
        return (
            f"DeviceStats(reads={self.reads}, writes={self.writes}, "
            f"busy={self.busy_time:.3f}s)"
        )


class Device:
    """A block device addressed in 4 KiB blocks.

    Subclasses implement :meth:`service_time`; the block-layer dispatch
    engine calls it once per request, in dispatch order, so the model
    may keep head-position state between calls.

    ``channels`` is the device's internal parallelism — how many
    requests it can service concurrently (flash channels on an SSD; 1
    for a single-actuator disk).  The multi-queue dispatch engine caps
    its effective slot count at this value, so a mechanical disk
    serializes regardless of the configured queue depth.
    """

    def __init__(self, capacity_blocks: int, name: str = "disk", channels: int = 1):
        if capacity_blocks <= 0:
            raise ValueError("capacity must be positive")
        if channels < 1:
            raise ValueError(f"channels must be >= 1, got {channels}")
        self.capacity_blocks = capacity_blocks
        self.name = name
        self.channels = channels
        #: Requests currently in service (maintained by the dispatch
        #: engine via :meth:`begin_service`/:meth:`end_service`).
        self.active = 0
        #: Channel (dispatch slot) of the attempt being priced — a hint
        #: stored by the block queue just before :meth:`service_time`,
        #: consumed by channel-aware fault models.  None outside a call.
        self.serving_channel: Optional[int] = None
        self.stats = DeviceStats()
        self._last_block_end: Optional[int] = None
        # Stack bus plumbing (set by attach_bus when the block queue
        # adopts this device); until then events are silently skipped.
        self._bus: Optional[StackBus] = None
        self._bus_clock = None
        self._sub_done: list = []

    def attach_bus(self, bus: StackBus, clock) -> None:
        """Adopt the stack bus; *clock* supplies ``.now`` timestamps.

        Composite devices override this to forward to their members so
        every physical device in the stack reports on the same bus.
        """
        self._bus = bus
        self._bus_clock = clock
        self._sub_done = bus.listeners(DeviceDone)

    def is_sequential(self, block: int) -> bool:
        """Does *block* directly follow the previous request?"""
        return self._last_block_end is not None and block == self._last_block_end

    def begin_service(self) -> None:
        """A dispatch slot starts occupying the device with a request.

        Called by the block queue immediately before :meth:`service_time`
        (so the call sees itself counted in :attr:`active`); wrappers
        forward to their inner device so contention is visible to the
        model that computes durations.
        """
        self.active += 1

    def end_service(self) -> None:
        """The request's busy period on the device ended."""
        self.active -= 1

    def service_time(self, op: str, block: int, nblocks: int) -> float:
        """Seconds to serve the request; also advances device state."""
        raise NotImplementedError

    def _account(self, op: str, nblocks: int, duration: float) -> None:
        nbytes = nblocks * PAGE_SIZE
        if op == "read":
            self.stats.reads += 1
            self.stats.bytes_read += nbytes
        elif op == "write":
            self.stats.writes += 1
            self.stats.bytes_written += nbytes
        else:
            raise ValueError(f"unknown op {op!r}")
        self.stats.busy_time += duration
        if self._sub_done:
            self._bus.publish(
                DeviceDone(self._bus_clock.now, self.name, op, nblocks, duration)
            )

    def _check_bounds(self, block: int, nblocks: int) -> None:
        """Reject malformed requests.

        Must be called before *any* accounting or head-position state is
        touched, so a rejected request leaves the device model exactly as
        it was (callers may catch :class:`DeviceError` and continue).
        """
        if nblocks <= 0:
            raise DeviceError(f"request of {nblocks} blocks")
        if block < 0 or block + nblocks > self.capacity_blocks:
            raise DeviceError(
                f"request [{block}, {block + nblocks}) outside device "
                f"of {self.capacity_blocks} blocks"
            )
