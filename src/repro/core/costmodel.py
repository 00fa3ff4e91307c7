"""Two-stage I/O cost estimation (paper §3.2, Figure 8).

Costs are expressed in *normalized bytes*: the amount of sequential I/O
the device could have done in the same time.  1 MB of random 4 KB
writes on a disk may normalize to ~10 MB or more.

- :class:`MemoryCostModel` guesses promptly, when a buffer is dirtied:
  on-disk locations may not exist yet (delayed allocation), so it
  classifies by *file-offset* randomness.
- :class:`DiskCostModel` revises at the block level, when locations,
  amplification, and actual service time are known.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.units import MB, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.block.request import BlockRequest
    from repro.devices.base import Device


class MemoryCostModel:
    """Prompt estimate at buffer-dirty time, from file-offset patterns."""

    def __init__(self, random_penalty: float = 10.0):
        #: Multiplier applied to writes that look random in the file.
        self.random_penalty = random_penalty
        #: inode id -> next expected page index (sequentiality detector).
        self._expected_next: Dict[int, int] = {}

    def looks_sequential(self, inode_id: int, index: int) -> bool:
        expected = self._expected_next.get(inode_id)
        self._expected_next[inode_id] = index + 1
        return expected is None or index == expected or index == expected - 1

    def estimate(self, inode_id: int, index: int) -> float:
        """Normalized-byte cost guessed for dirtying page *index* of a file."""
        if self.looks_sequential(inode_id, index):
            return float(PAGE_SIZE)
        return PAGE_SIZE * self.random_penalty


class DiskCostModel:
    """Block-level revision: true cost from actual device behaviour."""

    def __init__(self, device: "Device", sequential_rate: Optional[float] = None):
        self.device = device
        if sequential_rate is None:
            sequential_rate = getattr(device, "transfer_rate", None) or getattr(
                device, "read_bandwidth", 100 * MB
            )
        self.sequential_rate = float(sequential_rate)

    def normalized_bytes(self, request: "BlockRequest", duration: float) -> float:
        """Sequential-equivalent bytes consumed by a completed request."""
        if duration <= 0:
            return float(request.nbytes)
        return duration * self.sequential_rate

    def revision(self, request: "BlockRequest", duration: float, preliminary: float) -> float:
        """Extra charge (may be negative = refund) vs the prompt guess."""
        return self.normalized_bytes(request, duration) - preliminary
