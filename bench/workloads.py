"""The benchmark's four workloads, built only from the public stack API.

Each workload assembles a machine from ``Environment``, ``OS``, a device
model and ``make_scheduler``, prefills its files through ``OpenFile``
handles, and returns a :class:`Run` whose tenant threads are ready to
start.  Every thread is a closed loop in simulated time: it issues its
next call only after the previous one returned, and stops issuing at
the end of the measured phase.  The seed drives every random offset;
the same seed gives the same inputs and the same simulated results.

Nothing here imports ``repro.experiments`` or ``repro.workloads``, so
the benchmark keeps measuring the same work when those modules change.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.devices import HDD, SSD
from repro.schedulers import make_scheduler
from repro.sim import AllOf
from repro.syscall.os import OS
from repro.units import KB, MB


class Tenant:
    """Accounting for one tenant (one or many simulated threads)."""

    def __init__(self, name: str):
        self.name = name
        self.bytes_read = 0
        self.bytes_written = 0
        self.ops = 0
        #: Reads and writes that moved fewer bytes than asked.
        self.short = 0
        #: Simulated latency (s) of each timed call, its end time, and
        #: the bytes the tenant moved with it.
        self.latencies: List[float] = []
        self.ends: List[float] = []
        self.sizes: List[int] = []
        self.finished_at: Optional[float] = None

    def transfer(self, got: int, want: int, write: bool) -> None:
        self.ops += 1
        if got != want:
            self.short += 1
        if write:
            self.bytes_written += got
        else:
            self.bytes_read += got

    def timed(self, latency: float, end: float, nbytes: int) -> None:
        self.latencies.append(latency)
        self.ends.append(end)
        self.sizes.append(nbytes)


class Run:
    """A built, prefilled stack plus the tenant threads of its measured phase."""

    def __init__(self, env, machine, duration: float):
        self.env = env
        self.machine = machine
        self.start = env.now
        self.end = env.now + duration
        self.tenants: List[Tenant] = []
        #: The tenant whose timed calls give the foreground metrics.
        self.fg: Optional[Tenant] = None
        self.sim_seconds = 0.0
        #: Stack counters moved by the measured phase (see :func:`counters`).
        self.counters: Dict[str, float] = {}
        self._threads: List = []

    def add_tenant(self, name: str) -> Tenant:
        tenant = Tenant(name)
        self.tenants.append(tenant)
        return tenant

    def thread(self, tenant: Tenant, task, body: Callable, *args) -> None:
        """Register one simulated thread: ``body(tenant, task, run, *args)``."""
        self._threads.append((tenant, body(tenant, task, self, *args)))

    def measure(self) -> None:
        """Run every thread to completion and record what the phase moved."""
        env = self.env
        before = counters(self)
        procs = [env.process(self._finish(tenant, gen)) for tenant, gen in self._threads]
        env.run(until=AllOf(env, procs))
        self.sim_seconds = env.now - self.start
        after = counters(self)
        self.counters = {key: after[key] - before[key] for key in after}

    def _finish(self, tenant: Tenant, gen):
        yield from gen
        tenant.finished_at = max(tenant.finished_at or 0.0, self.env.now)


def counters(run: Run) -> Dict[str, float]:
    """Public stack counters, read from each layer's attributes."""
    m = run.machine
    queue = m.block_queue
    return {
        # The kernel's event-id counter: one per event scheduled.
        "sim.events": run.env._eid,
        "cache.evictions": m.cache.evictions,
        "cache.wb_pages": m.writeback.pages_flushed,
        "fs.journal_commits": m.fs.journal.commits,
        "fs.journal_blocks": m.fs.journal.journal_blocks_written,
        "block.submitted": queue.submitted,
        "block.completed": queue.completed,
        "block.failed": queue.failed,
        "block.retries": queue.retries,
        "devices.busy_s": m.device.stats.busy_time,
        "devices.bytes_read": m.device.stats.bytes_read,
        "devices.bytes_written": m.device.stats.bytes_written,
        "syscall.cpu_busy_s": m.cpu.busy_time,
    }


class Workload(NamedTuple):
    name: str
    params: Dict
    build: Callable  # (params, seed, env) -> Run, prefilled
    checks: Callable  # (run, params) -> [(check name, passed)]


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(run: Run) -> Dict:
    """Simulated end-to-end metrics, layer counters and the run's digest."""
    fg = run.fg
    c = run.counters
    app_read = sum(t.bytes_read for t in run.tenants)
    app_written = sum(t.bytes_written for t in run.tenants)
    sim = {
        "sim_total_mb_s": (app_read + app_written) / MB / run.sim_seconds,
        "sim_fg_mb_s": (fg.bytes_read + fg.bytes_written) / MB / (fg.finished_at - run.start),
        "sim_fg_p50_ms": 1000 * percentile(fg.latencies, 50),
        "sim_fg_p99_ms": 1000 * percentile(fg.latencies, 99),
    }
    layers = {key: c[key] for key in c if not key.startswith("devices.bytes_")}
    layers["cache.read_amp"] = c["devices.bytes_read"] / app_read if app_read else 0.0
    layers["cache.write_amp"] = c["devices.bytes_written"] / app_written if app_written else 0.0
    record = {
        "sim_seconds": run.sim_seconds,
        "counters": c,
        "tenants": [
            [t.name, t.bytes_read, t.bytes_written, t.ops, t.short, t.finished_at,
             t.latencies, t.ends]
            for t in run.tenants
        ],
    }
    blob = json.dumps(record, sort_keys=True).encode()
    return {
        "sim": sim,
        "layers": layers,
        "fg_samples": len(fg.latencies),
        "ops": sum(t.ops for t in run.tenants),
        "digest": hashlib.sha256(blob).hexdigest(),
    }


# -- shared building blocks ----------------------------------------------------


def _drive(env, gen) -> None:
    env.run(until=env.process(gen))


def _prefill(machine, task, path: str, size: int, drop: bool = True):
    """Create *path*, append *size* bytes in 1 MB calls, fsync, optionally drop."""
    handle = yield from machine.creat(task, path)
    written = 0
    while written < size:
        written += yield from handle.append(min(1 * MB, size - written))
    yield from handle.fsync()
    if drop:
        handle.drop_cache()
    yield from handle.close()


def _rng(workload: str, seed: int, thread: int) -> random.Random:
    # A string seed is hashed with SHA-512, so the stream does not
    # depend on PYTHONHASHSEED or on the process.
    return random.Random(f"{workload}/{seed}/{thread}")


def _sequential_reader(tenant: Tenant, task, run: Run, path: str, chunk: int,
                       rng: random.Random):
    """Read *path* front to back, cold and wrapping.

    Call sizes are drawn from 0.5x to 1.5x *chunk*, in bytes.  With one
    fixed size the model prices every undisturbed call identically, and
    the median latency would be the same constant whatever the seed.
    """
    env = run.env
    handle = yield from run.machine.open(task, path, mode="r")
    size = handle.size
    offset = 0
    while env.now < run.end:
        want = min(rng.randint(chunk // 2, chunk + chunk // 2), size - offset)
        t0 = env.now
        got = yield from handle.pread(offset, want)
        tenant.transfer(got, want, write=False)
        tenant.timed(env.now - t0, env.now, got)
        offset += want
        if offset >= size:
            # Wrapped: drop the file so every pass reads the disk.
            offset = 0
            handle.drop_cache()
    yield from handle.close()


def _conservation(run: Run, p: Dict):
    return [("full_length_transfers", all(t.short == 0 for t in run.tenants))]


def _rate_between(tenant: Tenant, t0: float, t1: float) -> float:
    moved = sum(n for end, n in zip(tenant.ends, tenant.sizes) if t0 <= end < t1)
    return moved / (t1 - t0)


# -- read_burst: fig01 under CFQ ---------------------------------------------------


def _burster(tenant: Tenant, task, run: Run, path: str, at: List[float], nbytes: int,
             rng: random.Random):
    """Dirty *nbytes* in random 4 KB pwrites at each phase offset in *at*."""
    env = run.env
    handle = yield from run.machine.open(task, path, mode="r+")
    blocks = handle.size // (4 * KB)
    for when in at:
        if run.start + when >= run.end:
            break
        if run.start + when > env.now:  # else the last burst overran: go now
            yield env.timeout(run.start + when - env.now)
        dirtied = 0
        while dirtied < nbytes:
            got = yield from handle.pwrite(rng.randrange(blocks) * 4 * KB, 4 * KB)
            tenant.transfer(got, 4 * KB, write=True)
            dirtied += 4 * KB
    yield from handle.close()


def build_read_burst(p: Dict, seed: int, env) -> Run:
    machine = OS(env, device=HDD(), scheduler=make_scheduler("cfq"),
                 memory_bytes=p["memory_mb"] * MB)
    setup = machine.spawn("setup")
    _drive(env, _prefill(machine, setup, "/reader", p["reader_mb"] * MB))
    _drive(env, _prefill(machine, setup, "/victim", p["victim_mb"] * MB))
    run = Run(env, machine, p["duration"])
    run.fg = run.add_tenant("A")
    run.thread(run.fg, machine.spawn("A-reader", priority=4), _sequential_reader,
               "/reader", p["chunk_kb"] * KB, _rng("read_burst", seed, 0))
    # B runs in the ionice idle class: the contract buffered writes break.
    run.thread(run.add_tenant("B"), machine.spawn("B-burster", priority=7, idle_class=True),
               _burster, "/victim", p["burst_at"], p["burst_mb"] * MB,
               _rng("read_burst", seed, 1))
    return run


def check_read_burst(run: Run, p: Dict):
    checks = _conservation(run, p)
    first = p["burst_at"][0]
    if p["duration"] >= first + 10:
        # fig01's CFQ finding: the idle-class burst still slows A.
        before = _rate_between(run.fg, run.start, run.start + first)
        after = _rate_between(run.fg, run.start + first, run.start + first + 10)
        checks.append(("cfq_burst_slows_reader", after < before))
    return checks


# -- fsync: fig12 under Split-Deadline ---------------------------------------------


def _logger(tenant: Tenant, task, run: Run, path: str):
    """Append 4 KB and fsync, in a loop; the fsync is the timed call."""
    env = run.env
    handle = yield from run.machine.open(task, path, mode="a")
    while env.now < run.end:
        got = yield from handle.append(4 * KB)
        tenant.transfer(got, 4 * KB, write=True)
        t0 = env.now
        yield from handle.fsync()
        tenant.ops += 1
        tenant.timed(env.now - t0, env.now, got)
    yield from handle.close()


def _checkpointer(tenant: Tenant, task, run: Run, path: str, blocks: int, pause: float,
                  rng: random.Random):
    """Write *blocks* random 4 KB blocks, fsync, pause, in a loop."""
    env = run.env
    handle = yield from run.machine.open(task, path, mode="r+")
    nblocks = handle.size // (4 * KB)
    while env.now < run.end:
        for _ in range(blocks):
            got = yield from handle.pwrite(rng.randrange(nblocks) * 4 * KB, 4 * KB)
            tenant.transfer(got, 4 * KB, write=True)
        yield from handle.fsync()
        tenant.ops += 1
        yield env.timeout(pause)
    yield from handle.close()


def build_fsync(p: Dict, seed: int, env) -> Run:
    sched = make_scheduler("split-deadline", read_deadline=p["read_deadline"],
                           fsync_deadline=p["a_fsync_deadline"],
                           dirty_cap=p["dirty_cap_mb"] * MB)
    machine = OS(env, device=HDD(), scheduler=sched, memory_bytes=p["memory_mb"] * MB)
    setup = machine.spawn("setup")
    _drive(env, _prefill(machine, setup, "/log", 4 * KB))
    _drive(env, _prefill(machine, setup, "/db", p["db_mb"] * MB))
    run = Run(env, machine, p["duration"])
    a_task, b_task = machine.spawn("A-logger"), machine.spawn("B-checkpointer")
    sched.set_fsync_deadline(a_task, p["a_fsync_deadline"])
    sched.set_fsync_deadline(b_task, p["b_fsync_deadline"])
    run.fg = run.add_tenant("A")
    run.thread(run.fg, a_task, _logger, "/log")
    run.thread(run.add_tenant("B"), b_task, _checkpointer, "/db", p["b_blocks"],
               p["b_pause"], _rng("fsync", seed, 1))
    return run


def check_fsync(run: Run, p: Dict):
    # fig12's finding: Split-Deadline keeps A's fsync tail near its goal.
    p99 = percentile(run.fg.latencies, 99)
    return _conservation(run, p) + [("fsync_p99_under_2.5x_goal", p99 < 2.5 * p["a_fsync_deadline"])]


# -- direct_mq: fig22's throughput cell --------------------------------------------


def _direct_reader(tenant: Tenant, task, run: Run, path: str, chunk: int, stagger: float,
                   rng: random.Random):
    """Random O_DIRECT reads; every call is one device request."""
    env = run.env
    handle = yield from run.machine.open(task, path, mode="r")
    span = handle.size // chunk
    # The SSD prices a read the same at any offset, so a seeded start
    # time is what makes the interleaving, and the latencies, seed-driven.
    yield env.timeout(rng.uniform(0.0, stagger))
    while env.now < run.end:
        t0 = env.now
        got = yield from handle.pread(rng.randrange(span) * chunk, chunk, direct=True)
        tenant.transfer(got, chunk, write=False)
        tenant.timed(env.now - t0, env.now, got)
    yield from handle.close()


def build_direct_mq(p: Dict, seed: int, env) -> Run:
    machine = OS(env, device=SSD(), scheduler=make_scheduler("noop"),
                 memory_bytes=p["memory_mb"] * MB, queue_depth=p["queue_depth"])
    setup = machine.spawn("setup")
    _drive(env, _prefill(machine, setup, "/pool", p["pool_mb"] * MB))
    run = Run(env, machine, p["duration"])
    # Foreground = every read: all threads account to one tenant.
    run.fg = run.add_tenant("readers")
    for i in range(p["threads"]):
        run.thread(run.fg, machine.spawn(f"io{i}"), _direct_reader, "/pool",
                   p["chunk_kb"] * KB, p["stagger_ms"] / 1000, _rng("direct_mq", seed, i))
    return run


def check_direct_mq(run: Run, p: Dict):
    return _conservation(run, p) + [
        ("device_bytes_equal_reader_bytes",
         run.counters["devices.bytes_read"] == run.fg.bytes_read)
    ]


# -- many_tenants: fig15's write-mem cell ------------------------------------------


def _overwriter(tenant: Tenant, task, run: Run, path: str, region: int, chunk: int):
    """Overwrite a *region* in *chunk* calls, from its start, wrapping.

    Every thread starts at offset 0, as in fig15: once the first thread
    has dirtied a page, the others overwrite it for free and the contract
    stops throttling them (the write-mem case).
    """
    env = run.env
    handle = yield from run.machine.open(task, path, mode="r+")
    offset = 0
    while env.now < run.end:
        got = yield from handle.pwrite(offset, chunk)
        tenant.transfer(got, chunk, write=True)
        offset = (offset + chunk) % region
    yield from handle.close()


def build_many_tenants(p: Dict, seed: int, env) -> Run:
    sched = make_scheduler("split-token")
    machine = OS(env, device=HDD(), scheduler=sched, memory_bytes=p["memory_mb"] * MB,
                 cores=p["cores"])
    setup = machine.spawn("setup")
    _drive(env, _prefill(machine, setup, "/a", p["a_mb"] * MB))
    _drive(env, _prefill(machine, setup, "/bsmall", p["b_region_mb"] * MB, drop=False))
    run = Run(env, machine, p["duration"])
    run.fg = run.add_tenant("A")
    run.thread(run.fg, machine.spawn("A"), _sequential_reader, "/a", p["a_chunk_kb"] * KB,
               _rng("many_tenants", seed, 0))
    b = run.add_tenant("B")
    b_tasks = [machine.spawn(f"B{i}") for i in range(p["b_threads"])]
    for task in b_tasks:
        run.thread(b, task, _overwriter, "/bsmall", p["b_region_mb"] * MB,
                   p["b_chunk_kb"] * KB)
    sched.set_limit(b_tasks, p["b_rate_mb_s"] * MB)  # one shared contract
    return run


#: Why each workload is in the benchmark: BENCHMARK.json and bench/README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "read_burst",
            dict(memory_mb=64, reader_mb=128, victim_mb=64, chunk_kb=1024,
                 burst_mb=16, burst_at=[10.0, 25.0], duration=40.0),
            build_read_burst, check_read_burst,
        ),
        Workload(
            "fsync",
            dict(memory_mb=1024, db_mb=16, dirty_cap_mb=8, b_blocks=1024, b_pause=2.0,
                 a_fsync_deadline=0.1, b_fsync_deadline=5.0, read_deadline=0.05,
                 duration=90.0),
            build_fsync, check_fsync,
        ),
        Workload(
            "direct_mq",
            dict(memory_mb=256, pool_mb=64, threads=64, chunk_kb=4, queue_depth=32,
                 stagger_ms=1.0, duration=1.0),
            build_direct_mq, check_direct_mq,
        ),
        Workload(
            "many_tenants",
            dict(memory_mb=256, cores=2, a_mb=64, a_chunk_kb=64, b_threads=256,
                 b_region_mb=2, b_chunk_kb=64, b_rate_mb_s=1, duration=1.4),
            build_many_tenants, _conservation,
        ),
    )
}
