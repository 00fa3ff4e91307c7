"""Figure 6: SCS-Token fails to isolate A from B.

B is throttled to 10 MB/s but SCS charges nominal syscall bytes, so
B's *random reads* (each 4 KB costing ~10 ms of disk) are massively
under-billed and crush A, while B's buffered writes are over-billed.
The paper reports A's throughput standard deviation of ~41 MB across
the 14 workloads.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.isolation import merge_sweep, sweep_cells
from repro.units import KB, MB

DEFAULT_RUN_SIZES = (4 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB, 4 * MB, 16 * MB)


def cells(run_sizes: List[int] = DEFAULT_RUN_SIZES, rate_limit: float = 10 * MB, **kwargs):
    return sweep_cells("scs", list(run_sizes), rate_limit, **kwargs)


def merge(pairs, run_sizes: List[int] = DEFAULT_RUN_SIZES, rate_limit: float = 10 * MB, **kwargs) -> Dict:
    return merge_sweep(pairs, list(run_sizes), modes=kwargs.get("modes", ("read", "write")))
