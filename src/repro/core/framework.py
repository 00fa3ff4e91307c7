"""The Table 1 capability matrix of the three scheduling frameworks."""

from __future__ import annotations

from typing import Dict


#: Table 1 of the paper: which scheduler needs each framework can meet.
FRAMEWORK_PROPERTIES: Dict[str, Dict[str, bool]] = {
    "block": {"cause_mapping": False, "cost_estimation": True, "reordering": False},
    "syscall": {"cause_mapping": True, "cost_estimation": False, "reordering": True},
    "split": {"cause_mapping": True, "cost_estimation": True, "reordering": True},
}
