"""Same seed + same plan must reproduce the fault sequence exactly."""

from repro import KB, MB, Environment, OS
from repro.devices import HDD
from repro.faults import EIO, FaultInjector, FaultPlan, FaultyDevice
from repro.obs import SpanBuilder
from repro.schedulers.noop import Noop
from repro.sim.rand import RandomStreams


def run_workload(seed, plan):
    """A small mixed read/write run; returns every span it produced."""
    env = Environment()
    injector = FaultInjector(env, plan, RandomStreams(seed))
    device = FaultyDevice(HDD(), injector)
    machine = OS(env, device=device, scheduler=Noop(), memory_bytes=256 * MB)
    builder = SpanBuilder.attach(machine)
    task = machine.spawn("app")

    def workload():
        handle = yield from machine.creat(task, "/f")
        for _ in range(8):
            yield from handle.append(64 * KB)
            try:
                yield from handle.fsync()
            except EIO:
                pass  # a failed fsync is part of the traced behaviour
        machine.cache.free_file(handle.inode.id)
        for i in range(8):
            try:
                yield from handle.pread(i * 8 * KB, 8 * KB)
            except EIO:
                pass

    proc = env.process(workload())
    env.run(until=proc)
    return builder.spans


PLAN_KWARGS = dict(read_error_prob=0.1, write_error_prob=0.05, stall_prob=0.0)


def normalize(spans):
    """The ``io`` spans with request ids and absolute pids (global
    counters) stripped, keeping cause cardinality and status."""
    return [
        {
            **{k: v for k, v in span.items() if k not in ("id", "submitter_pid")},
            "causes": len(span["causes"]),
        }
        for span in spans
        if span["kind"] == "io"
    ]


def test_same_seed_same_plan_identical_traces():
    first = normalize(run_workload(7, FaultPlan(**PLAN_KWARGS)))
    second = normalize(run_workload(7, FaultPlan(**PLAN_KWARGS)))
    assert first == second  # identical io spans, statuses included
    assert len(first) > 0
    assert any(span["attempts"] > 1 for span in first)  # faults were retried


def test_different_seed_differs():
    first = normalize(run_workload(7, FaultPlan(**PLAN_KWARGS)))
    second = normalize(run_workload(8, FaultPlan(**PLAN_KWARGS)))
    assert first != second


def test_empty_plan_matches_unwrapped_device():
    """Zero-cost default: a no-fault FaultyDevice changes nothing."""

    def run(wrap):
        env = Environment()
        device = HDD()
        if wrap:
            injector = FaultInjector(env, FaultPlan(), RandomStreams(0))
            device = FaultyDevice(device, injector, name=device.name)
        machine = OS(env, device=device, scheduler=Noop(), memory_bytes=256 * MB)
        builder = SpanBuilder.attach(machine)
        task = machine.spawn("app")

        def workload():
            handle = yield from machine.creat(task, "/f")
            for _ in range(4):
                yield from handle.append(128 * KB)
                yield from handle.fsync()

        proc = env.process(workload())
        env.run(until=proc)
        return builder.spans

    assert normalize(run(wrap=False)) == normalize(run(wrap=True))
