"""Cross-scheduler integration invariants.

Every scheduler — whatever its policy — must preserve the storage
stack's correctness contracts: syscalls terminate (no lost wakeups),
fsync means durable, and data written equals data accounted.  These
run the same mixed workload under all seven schedulers.
"""

import pytest

from repro import Environment, OS, SSD, KB, MB
from repro.obs.bus import BlockComplete
from repro.schedulers import (
    AFQ,
    BlockDeadline,
    CFQ,
    Noop,
    SCSToken,
    SplitDeadline,
    SplitNoop,
    SplitToken,
)

SCHEDULERS = {
    "noop": Noop,
    "split-noop": SplitNoop,
    "cfq": CFQ,
    "block-deadline": BlockDeadline,
    "scs-token": SCSToken,
    "afq": AFQ,
    "split-deadline": SplitDeadline,
    "split-token": SplitToken,
}


def make_os(name):
    env = Environment()
    machine = OS(env, device=SSD(), scheduler=SCHEDULERS[name](), memory_bytes=256 * MB)
    return env, machine


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_mixed_workload_terminates(name):
    """Writers, readers, and fsyncers all finish — no deadlock."""
    env, machine = make_os(name)
    done = []

    def writer(task, path):
        handle = yield from machine.creat(task, path)
        for _ in range(8):
            yield from handle.append(64 * KB)
        yield from handle.fsync()
        done.append(task.name)

    def reader(task, path):
        yield env.timeout(0.2)
        handle = yield from machine.open(task, path)
        total = 0
        while total < handle.inode.size:
            n = yield from handle.pread(total, 64 * KB)
            if n == 0:
                break
            total += n
        done.append(task.name)

    for i in range(3):
        task = machine.spawn(f"w{i}", priority=i * 2)
        env.process(writer(task, f"/f{i}"))
    for i in range(3):
        task = machine.spawn(f"r{i}")
        env.process(reader(task, f"/f{i}"))
    env.run(until=60.0)
    assert len(done) == 6, f"{name}: stuck tasks, finished only {done}"


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_fsync_means_durable(name):
    """After fsync returns, none of the file's pages are dirty."""
    env, machine = make_os(name)
    task = machine.spawn("app")
    result = {}

    def proc():
        handle = yield from machine.creat(task, "/data")
        yield from handle.append(1 * MB)
        yield from handle.fsync()
        result["dirty"] = machine.cache.dirty_bytes_of(handle.inode.id)
        result["allocated"] = len(handle.inode.block_map)

    env.process(proc())
    env.run(until=60.0)
    assert result, f"{name}: fsync never completed"
    assert result["dirty"] == 0
    assert result["allocated"] == 256


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_device_received_at_least_payload(name):
    """Bytes on the device cover the payload (plus journal overhead)."""
    env, machine = make_os(name)
    task = machine.spawn("app")
    payload = 2 * MB

    def proc():
        handle = yield from machine.creat(task, "/data")
        yield from handle.append(payload)
        yield from handle.fsync()

    env.process(proc())
    env.run(until=60.0)
    assert machine.device.stats.bytes_written >= payload


@pytest.mark.parametrize("name", ["afq", "split-deadline", "split-token", "split-noop"])
def test_split_schedulers_see_true_causes(name):
    """For every split scheduler, delegated writeback carries app tags."""
    env, machine = make_os(name)
    app = machine.spawn("app")
    observed = []
    machine.block_queue.bus.subscribe(
        BlockComplete,
        lambda e: observed.append(set(e.request.causes))
        if e.request.is_write and not e.request.metadata
        else None,
    )

    def proc():
        handle = yield from machine.creat(app, "/data")
        yield from handle.append(256 * KB)
        machine.writeback.request_flush(0)
        yield env.timeout(10.0)

    env.process(proc())
    env.run(until=30.0)
    assert observed, f"{name}: no data writes observed"
    assert all(app.pid in causes for causes in observed)
