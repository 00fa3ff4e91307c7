"""The paper's core contribution: the split-level scheduling framework.

- :mod:`repro.core.tags` — cross-layer cause tags (§3.1/§4.1): every
  dirty page and block request carries the *set* of tasks that caused
  it, and proxy tasks (writeback, journal commit) inherit the causes of
  the work they carry out on others' behalf.
- :mod:`repro.core.hooks` — the split hook table (Table 2): system-call
  entry/return hooks, memory (page-cache) hooks, and block hooks.
- :mod:`repro.core.framework` — the Table 1 capability matrix of the
  block, syscall and split frameworks.
- :mod:`repro.core.costmodel` — the two-stage cost estimation of §3.2
  (prompt memory-level guess, later block-level revision).
"""

from repro.core.tags import CauseSet, TagManager
from repro.core.hooks import SPLIT_HOOK_TABLE, SchedulerHooks, SplitScheduler
from repro.core.costmodel import MemoryCostModel, DiskCostModel

__all__ = [
    "CauseSet",
    "DiskCostModel",
    "MemoryCostModel",
    "SPLIT_HOOK_TABLE",
    "SchedulerHooks",
    "SplitScheduler",
    "TagManager",
]
