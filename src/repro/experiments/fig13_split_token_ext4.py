"""Figure 13: Split-Token isolates A regardless of B's pattern (ext4).

Same sweep as Figure 6, but with two-stage (memory + block) cost
accounting and below-cache read throttling.  The paper reports A's
standard deviation dropping from 41 MB (SCS) to ~7 MB (a 6×
improvement).
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.fig06_scs_isolation import DEFAULT_RUN_SIZES
from repro.experiments.isolation import merge_sweep, sweep_cells
from repro.units import MB


def cells(run_sizes: List[int] = DEFAULT_RUN_SIZES, rate_limit: float = 10 * MB, **kwargs):
    return sweep_cells("split", list(run_sizes), rate_limit, **kwargs)


def merge(pairs, run_sizes: List[int] = DEFAULT_RUN_SIZES, rate_limit: float = 10 * MB, **kwargs) -> Dict:
    return merge_sweep(pairs, list(run_sizes), modes=kwargs.get("modes", ("read", "write")))
