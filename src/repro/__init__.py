"""repro — a reproduction of "Split-Level I/O Scheduling" (SOSP 2015).

The package simulates a complete Linux-like storage stack (system-call
layer, page cache + writeback, journaling filesystems, block layer,
HDD/SSD device models) as a discrete-event simulation, implements the
paper's split-level scheduling framework on top of it, and regenerates
every figure and table of the paper's evaluation.

Quickstart::

    from repro import Environment, OS, HDD
    from repro.schedulers import SplitToken

    env = Environment()
    scheduler = SplitToken()
    machine = OS(env, device=HDD(), scheduler=scheduler)
    ...
"""

from repro.sim import Environment
from repro.syscall import OS, OpenFile
from repro.devices import HDD, SSD
from repro.proc import Task
from repro.units import GB, KB, MB, PAGE_SIZE

__version__ = "1.0.0"

__all__ = [
    "Environment",
    "GB",
    "HDD",
    "KB",
    "MB",
    "OS",
    "OpenFile",
    "PAGE_SIZE",
    "SSD",
    "Task",
    "__version__",
]
