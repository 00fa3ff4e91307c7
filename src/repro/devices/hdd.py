"""Hard-disk model: seek + rotational latency + transfer.

Parameters default to a 7200 RPM, ~500 GB desktop drive (the paper's
WD AAKX class).  The model is deterministic: seek time scales with the
square root of seek distance (a standard first-order approximation, cf.
Ruemmler & Wilkes), rotational delay is the expected half revolution,
and transfer proceeds at a constant areal rate.

What matters for the experiments is the *ratio* between sequential and
random throughput (~100 MB/s vs ~1 MB/s for 4 KB randoms), which this
model reproduces.
"""

from __future__ import annotations

from repro.devices.base import Device
from repro.units import MB, PAGE_SIZE


class HDD(Device):
    """Mechanical disk with head-position state."""

    def __init__(
        self,
        capacity_blocks: int = 128 * 1024 * 1024,  # 512 GB of 4 KB blocks
        name: str = "hdd",
        max_seek_time: float = 0.014,
        avg_seek_time: float = 0.0088,
        rpm: int = 7200,
        transfer_rate: float = 110 * MB,
        settle_time: float = 0.0005,
    ):
        super().__init__(capacity_blocks, name=name)
        self.max_seek_time = max_seek_time
        self.avg_seek_time = avg_seek_time
        self.rotation_time = 60.0 / rpm
        self.transfer_rate = transfer_rate
        self.settle_time = settle_time

    def seek_time(self, from_block: int, to_block: int) -> float:
        """Expected seek time between two blocks (0 if adjacent)."""
        distance = abs(to_block - from_block)
        if distance == 0:
            return 0.0
        # Square-root seek curve pinned so a full-stroke seek costs
        # max_seek_time and the settle cost dominates short seeks.
        frac = distance / self.capacity_blocks
        return self.settle_time + (self.max_seek_time - self.settle_time) * frac**0.5

    def service_time(self, op: str, block: int, nblocks: int) -> float:
        self._check_bounds(block, nblocks)
        transfer = nblocks * PAGE_SIZE / self.transfer_rate

        if self.is_sequential(block):
            # Head already positioned: streaming transfer only.
            duration = transfer
        else:
            origin = self._last_block_end if self._last_block_end is not None else 0
            duration = self.seek_time(origin, block) + self.rotation_time / 2 + transfer
            self.stats.seeks += 1

        self._last_block_end = block + nblocks
        self._account(op, nblocks, duration)
        return duration
