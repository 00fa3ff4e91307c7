"""Figure 14: Split-Token vs SCS-Token over six B workloads.

Left panel: A's slowdown (isolation) — Split near the target always,
SCS way off for random patterns.  Right panel: B's own throughput —
Split is much faster for memory-bound workloads (2.3× for read-mem,
~837× for write-mem) because cache hits and buffer overwrites are not
billed as I/O.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.isolation import SIX_WORKLOADS
from repro.units import MB


def cells(
    rate_limit: float = 1 * MB,
    duration: float = 15.0,
    workloads=SIX_WORKLOADS,
    **kwargs,
):
    """Parallelisable cells: one run_pair per (scheduler, B workload)."""
    return [
        (f"{kind}/{workload}", "repro.experiments.isolation:run_pair",
         dict(scheduler_kind=kind, b_workload=workload, rate_limit=rate_limit,
              duration=duration, **kwargs))
        for kind in ("scs", "split")
        for workload in workloads
    ]


def merge(
    pairs,
    rate_limit: float = 1 * MB,
    duration: float = 15.0,
    workloads=SIX_WORKLOADS,
    **kwargs,
) -> Dict:
    results: Dict = {"workloads": list(workloads), "rate_limit_mb": rate_limit / MB}
    ordered = iter(pairs)
    for kind in ("scs", "split"):
        a_series, b_series = [], []
        for _workload in workloads:
            cell = next(ordered)[1]
            a_series.append(cell["a_mbps"])
            b_series.append(cell["b_mbps"])
        results[f"{kind}_a_mbps"] = a_series
        results[f"{kind}_b_mbps"] = b_series

    # Headline ratios for the memory-bound workloads that were run.
    for workload in ("read-mem", "write-mem"):
        if workload in results["workloads"]:
            index = results["workloads"].index(workload)
            scs = results["scs_b_mbps"][index]
            split = results["split_b_mbps"][index]
            speedup = split / scs if scs > 0 else float("inf")
            results[f"{workload.replace('-', '_')}_speedup"] = speedup
    return results
