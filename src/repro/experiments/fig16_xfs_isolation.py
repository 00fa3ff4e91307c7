"""Figure 16: Split-Token on partially-integrated XFS, data-intensive.

XFS only has part (a) of the split integration (generic buffer
tagging), but data-dominated workloads need nothing more: isolation
holds (the paper measures A's deviation at 12.8 MB).
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.fig06_scs_isolation import DEFAULT_RUN_SIZES
from repro.experiments.isolation import merge_sweep, sweep_cells
from repro.fs.xfs import XFS
from repro.units import MB


def cells(run_sizes: List[int] = DEFAULT_RUN_SIZES, rate_limit: float = 10 * MB, **kwargs):
    kwargs.setdefault("fs_class", XFS)
    return sweep_cells("split", list(run_sizes), rate_limit, **kwargs)


def merge(pairs, run_sizes: List[int] = DEFAULT_RUN_SIZES, rate_limit: float = 10 * MB, **kwargs) -> Dict:
    return merge_sweep(pairs, list(run_sizes), modes=kwargs.get("modes", ("read", "write")))
