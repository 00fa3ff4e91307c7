"""What a run keeps in memory and loads at start-up.

A completed block request or journal transaction must be freed by
reference counting alone: if it sat in a reference cycle (with its own
``done`` event, say), every completed I/O would wait in memory for the
cyclic garbage collector.  And a plain stack imports only the modules
it runs: fault injection, health monitoring, spans and their export,
XFS, composite devices and unused schedulers load on first use.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

from repro import HDD, KB, MB, OS, SSD, Environment
from repro.block.request import BlockRequest
from repro.cache.page import DirtyRun
from repro.fs.journal import Transaction
from repro.schedulers import make_scheduler
from repro.sim.events import AllOf, Event
from repro.workloads import fsync_appender, prefill_file


def _direct_reads(env):
    machine = OS(env, device=SSD(), scheduler=make_scheduler("noop"),
                 memory_bytes=64 * MB, queue_depth=4)
    setup = machine.spawn("setup")
    env.run(until=env.process(prefill_file(machine, setup, "/pool", 4 * MB)))

    def reader(task, seed):
        handle = yield from machine.open(task, "/pool", mode="r")
        for i in range(64):
            yield from handle.pread((seed * 97 + i * 31) % 1024 * 4 * KB, 4 * KB, direct=True)

    procs = [env.process(reader(machine.spawn(f"r{n}"), n)) for n in range(8)]
    env.run(until=AllOf(env, procs))
    return machine


def _appends_and_fsyncs(env):
    # Split-Deadline's dirty cap kicks pdflush; the run is long enough
    # for timer-woken passes and journal commits too.
    sched = make_scheduler("split-deadline", dirty_cap=1 * MB)
    machine = OS(env, device=HDD(), scheduler=sched, memory_bytes=64 * MB)

    def bulk(task):
        handle = yield from machine.creat(task, "/bulk")
        for _ in range(8):
            yield from handle.append(512 * KB)
            yield env.timeout(0.5)

    env.process(bulk(machine.spawn("bulk")))
    env.run(until=env.process(fsync_appender(machine, machine.spawn("log"), "/log", 12.0)))
    return machine


def _cyclic_garbage(build):
    """Objects a run leaves to the cyclic collector, by type name."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        env = Environment()
        machine = build(env)
        gc.collect()
        kinds = (BlockRequest, Transaction, DirtyRun, Event)
        found = sorted({type(o).__name__ for o in gc.garbage if isinstance(o, kinds)})
        del machine, env
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return found


def test_completed_io_leaves_no_cyclic_garbage():
    assert _cyclic_garbage(_direct_reads) == []
    assert _cyclic_garbage(_appends_and_fsyncs) == []


PLAIN_STACK = """
import json, sys
from repro import OS, Environment
from repro.schedulers import make_scheduler

OS(Environment(), scheduler=make_scheduler("noop"))
loaded = sorted(sys.modules)

import repro.devices, repro.faults, repro.fs, repro.obs, repro.schedulers, repro.sim
from repro.devices.composite import RAID0
from repro.faults.plan import FaultPlan
from repro.fs.xfs import XFS
from repro.obs.span import SpanBuilder
from repro.sim.rand import RandomStreams

resolved = [
    repro.obs.SpanBuilder is SpanBuilder,
    repro.faults.FaultPlan is FaultPlan,
    repro.devices.RAID0 is RAID0,
    repro.fs.XFS is XFS,
    repro.sim.RandomStreams is RandomStreams,
]
registry = {name: cls.__name__ for name, cls in repro.schedulers.REGISTRY.items()}
print(json.dumps({"loaded": loaded, "resolved": resolved, "registry": registry}))
"""

NOT_LOADED = [
    "repro.faults.plan",
    "repro.faults.injector",
    "repro.faults.device",
    "repro.faults.recovery",
    "repro.health",
    "repro.obs.span",
    "repro.obs.export",
    "repro.fs.xfs",
    "repro.devices.composite",
    "repro.schedulers.cfq",
    "repro.schedulers.block_deadline",
    "repro.schedulers.scs",
    "repro.schedulers.afq",
    "repro.schedulers.stride",
    "repro.schedulers.tokens",
    "repro.schedulers.split_deadline",
    "repro.schedulers.split_token",
]


def test_plain_stack_imports_only_what_it_runs():
    """A noop stack loads no optional subsystem, and every public name
    of the lazily loading packages still resolves afterwards."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    out = json.loads(subprocess.run(
        [sys.executable, "-c", PLAIN_STACK], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout)
    assert "repro.schedulers.noop" in out["loaded"]
    assert [name for name in NOT_LOADED if name in out["loaded"]] == []
    assert out["resolved"] == [True] * 5
    assert out["registry"] == {
        "noop": "Noop",
        "cfq": "CFQ",
        "block-deadline": "BlockDeadline",
        "scs-token": "SCSToken",
        "split-noop": "SplitNoop",
        "afq": "AFQ",
        "split-deadline": "SplitDeadline",
        "split-token": "SplitToken",
    }


def test_every_public_name_of_a_lazy_package_resolves():
    import repro.devices
    import repro.faults
    import repro.fs
    import repro.obs
    import repro.schedulers
    import repro.sim

    for package in (repro.devices, repro.faults, repro.fs, repro.obs, repro.schedulers, repro.sim):
        for name in package.__all__:
            assert getattr(package, name) is not None
