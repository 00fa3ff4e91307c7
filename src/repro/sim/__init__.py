"""Discrete-event simulation kernel.

A small, dependency-free engine in the style of SimPy: an
:class:`~repro.sim.core.Environment` drives a priority queue of
:class:`~repro.sim.events.Event` objects in virtual time, and
:class:`~repro.sim.process.Process` wraps generator coroutines that
``yield`` events to wait on them.

The storage-stack simulation (devices, block layer, page cache,
filesystem, applications) is built entirely on this kernel, so
experiments are deterministic and run in virtual time.
"""

from repro.sim.core import Environment, StopSimulation
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Timeout,
)
from repro.sim.process import Process, ProcessDied
from repro.lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {"repro.sim.rand": ("RandomStreams",)})

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "ProcessDied",
    "RandomStreams",
    "StopSimulation",
    "Timeout",
]
