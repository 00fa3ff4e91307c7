"""Figure 25 (reproduction extension): file-API tenants under reprofs.

ROADMAP item 3's payoff experiment: two *real* file-API workloads — no
hand-written simulation generators — run against one device through
the `reprofs` frontend, and only the split framework isolates them:

- the **scan** tenant is a parquet-style columnar reader: it opens one
  columnar file, reads the footer, then for each row group reads the
  selected column chunks (synchronous code, bridged onto the simulation
  by the driver pump);
- the **loader** tenant is a random-read dataset loader: a handful of
  reader threads each pick a random shard and a random offset and pull
  a block, the access pattern of a shuffling ML input pipeline.

Both tenants are `ReproFileSystem` instances sharing one stack, so
every byte carries its tenant's cause set.  Under CFQ the loader's
random reads shred the scan's sequential throughput; under Split-Token
a rate contract on the loader's account holds the reads below the
cache, and the scan keeps most of its solo bandwidth.

Reported per scheduler: solo scan MB/s, contended scan MB/s, their
ratio (*retention*, the isolation metric), and loader MB/s.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.config import StackConfig
from repro.experiments.common import build_stack
from repro.units import KB, MB, PAGE_SIZE

DEFAULT_SCHEDULERS = ("cfq", "split-token")


def _layout(scanfs, loadfs, scan_bytes, row_groups, columns, footer,
            shards, shard_bytes):
    """Create both datasets through the file API, durable and cold."""
    chunk = scan_bytes // (row_groups * columns)
    scanfs.makedirs("/data", exist_ok=True)
    with scanfs.open("/data/events.parquet", "wb") as f:
        for _ in range(row_groups * columns):
            f.write(b"\x00" * chunk)
        f.write(b"\x00" * footer)
        f.flush()
        f.handle.drop_cache()
    loadfs.makedirs("/train", exist_ok=True)
    for i in range(shards):
        with loadfs.open(f"/train/shard-{i:03d}.bin", "wb") as f:
            f.write(b"\x00" * shard_bytes)
            f.flush()
            f.handle.drop_cache()
    return chunk


def _loader_thread(handles, shard_bytes, chunk, rng, counter, stop):
    """Generator: random-read loop over the shard files."""
    span = max(1, (shard_bytes - chunk) // PAGE_SIZE)
    while not stop[0]:
        handle = handles[rng.randrange(len(handles))]
        offset = rng.randrange(0, span) * PAGE_SIZE
        n = yield from handle.pread(offset, chunk)
        counter[0] += n


def _columnar_scan(scanfs, path, chunk, row_groups, columns,
                   selected_columns, footer, passes):
    """Synchronous parquet-style scan; returns bytes actually read.

    Runs *passes* query iterations (cache dropped between them, like a
    fresh job each time) so the measurement spans many scheduler time
    slices — a single pass fits inside one CFQ slice at small scale.
    """
    got = 0
    for _ in range(passes):
        with scanfs.open(path, "rb") as f:
            f.handle.drop_cache()  # a fresh job: nothing resident
            f.seek(-footer, 2)
            got += len(f.read(footer))
            for rg in range(row_groups):
                for col in range(selected_columns):
                    f.seek((rg * columns + col) * chunk)
                    got += len(f.read(chunk))
    return got


def tenant_cell(
    config: Dict,
    contended: bool = True,
    scan_bytes: int = 32 * MB,
    row_groups: int = 8,
    columns: int = 4,
    selected_columns: int = 2,
    footer: int = 64 * KB,
    shards: int = 8,
    shard_bytes: int = 8 * MB,
    loader_threads: int = 4,
    loader_chunk: int = 256 * KB,
    loader_rate: float = 4 * MB,
    scan_passes: int = 8,
    seed: int = 0,
) -> Dict:
    """One cell: the scan (optionally against the loader) on one stack."""
    from repro.vfs.reprofs import ReproFileSystem

    config = StackConfig.from_dict(config)
    env, machine = build_stack(config)
    scanfs = ReproFileSystem(machine=machine, tenant="scan")
    loadfs = ReproFileSystem(machine=machine, tenant="loader")
    chunk = _layout(
        scanfs, loadfs, scan_bytes, row_groups, columns, footer,
        shards, shard_bytes,
    )

    limiter = getattr(machine.scheduler, "set_limit", None)
    if limiter is not None:
        limiter(loadfs.task, loader_rate)

    loader_bytes = [0]
    stop = [False]
    if contended:
        rng = random.Random(seed)
        handles = [
            loadfs.open_handle(f"/train/shard-{i:03d}.bin", mode="r")
            for i in range(shards)
        ]
        for t in range(loader_threads):
            loadfs.process(
                _loader_thread(
                    handles, shard_bytes, loader_chunk,
                    random.Random(seed * 1000 + t), loader_bytes, stop,
                ),
                name=f"loader-{t}",
            )

    start = env.now
    got = _columnar_scan(
        scanfs, "/data/events.parquet", chunk, row_groups, columns,
        selected_columns, footer, scan_passes,
    )
    stop[0] = True
    elapsed = max(env.now - start, 1e-9)
    return {
        "scan_mbps": got / elapsed / MB,
        "scan_bytes": got,
        "loader_mbps": loader_bytes[0] / elapsed / MB,
        "elapsed": elapsed,
        "episodes": scanfs.pump.episodes,
    }


def cells(
    schedulers: List[str] = DEFAULT_SCHEDULERS,
    memory_bytes: int = 32 * MB,
    **params,
):
    """Per scheduler: one solo cell and one contended cell."""
    out = []
    for sched in schedulers:
        config = StackConfig(
            device="hdd", scheduler=sched, memory_bytes=memory_bytes
        )
        for contended in (False, True):
            label = "contended" if contended else "solo"
            out.append(
                (f"{sched}/{label}", "tenant_cell",
                 dict(config=config.to_dict(), contended=contended, **params))
            )
    return out


def merge(pairs, schedulers: List[str] = DEFAULT_SCHEDULERS, **_ignored) -> Dict:
    """Reassemble ordered (label, cell) pairs into the figure's output."""
    schedulers = list(schedulers)
    ordered = iter(pairs)
    points = []
    for sched in schedulers:
        _, solo = next(ordered)
        _, contended = next(ordered)
        points.append({
            "scheduler": sched,
            "scan_solo_mbps": solo["scan_mbps"],
            "scan_contended_mbps": contended["scan_mbps"],
            "retention": contended["scan_mbps"] / (solo["scan_mbps"] or 1.0),
            "loader_mbps": contended["loader_mbps"],
        })
    return {
        "schedulers": schedulers,
        "points": points,
        "retention": {p["scheduler"]: p["retention"] for p in points},
    }
