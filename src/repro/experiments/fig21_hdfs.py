"""Figure 21: HDFS isolation via local Split-Token schedulers.

A throttled group and an unthrottled group (four writers each) write
HDFS files across seven workers with 3× replication.  Lower local
rate caps give the unthrottled group more throughput; the throttled
group's total falls short of the (cap/3)·7 upper bound because random
block placement leaves tokens unused on cold workers — and a smaller
HDFS block size closes most of that gap.

This figure runs on the shard-aware simulation core
(:mod:`repro.sim.shard`): the seven workers are a
:class:`~repro.config.ClusterConfig` fleet, the writer groups are
tenant contracts, and each writer is a :class:`StreamSpec` driven
through a gateway node.  At the default ``shards=1`` the whole fleet
shares one event loop; ``--set shards=K`` partitions it into K shards
stepped in lockstep epochs in the same process, with bit-identical
results (the ``shard-equivalence`` CI job checks the golden hash).
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import ClusterConfig, TenantContract
from repro.sim.shard import StreamSpec, run_cluster
from repro.units import GB, MB


def run_cell(
    rate_cap: float,
    block_size: int = 64 * MB,
    duration: float = 20.0,
    workers: int = 7,
    writers_per_group: int = 4,
    seed: int = 0,
    shards: int = 1,
) -> Dict:
    """One (rate cap, block size) point of the figure."""
    cluster = ClusterConfig(
        nodes=workers,
        replication=3,
        block_size=block_size,
        tenants=(
            TenantContract("throttled", rate_per_node=rate_cap),
            TenantContract("free"),
        ),
        seed=seed,
    )
    file_size = 16 * GB  # effectively unbounded; duration stops us
    streams = []
    for i in range(writers_per_group):
        streams.append(StreamSpec(2 * i, "throttled", i % workers, file_size))
        streams.append(StreamSpec(2 * i + 1, "free", (i + writers_per_group) % workers, file_size))
    result = run_cluster(cluster, streams, duration, shards=shards)

    throttled = result["tenants"]["throttled"]["mbps"] * MB
    unthrottled = result["tenants"]["free"]["mbps"] * MB
    upper_bound = (rate_cap / 3) * workers
    return {
        "rate_cap_mb": rate_cap / MB,
        "block_size_mb": block_size / MB,
        "throttled_mbps": throttled / MB,
        "unthrottled_mbps": unthrottled / MB,
        "upper_bound_mbps": upper_bound / MB,
        "bound_utilization": (throttled / upper_bound) if upper_bound else 0.0,
    }


def cells(
    rate_caps: List[float] = (4 * MB, 8 * MB, 16 * MB, 32 * MB),
    block_sizes: List[int] = (64 * MB, 16 * MB),
    **kwargs,
) -> List:
    """One cell per (block size, rate cap) point, in output order."""
    out = []
    for block_size in block_sizes:
        for cap in rate_caps:
            label = f"block{block_size // MB}mb/cap{cap / MB:g}"
            cell_kwargs = dict(kwargs, rate_cap=cap, block_size=block_size)
            out.append((label, "run_cell", cell_kwargs))
    return out


def merge(
    pairs: List,
    rate_caps: List[float] = (4 * MB, 8 * MB, 16 * MB, 32 * MB),
    block_sizes: List[int] = (64 * MB, 16 * MB),
    **_kwargs,
) -> Dict:
    """Reassemble cell results into the figure's output."""
    results: Dict = {"rate_caps_mb": [cap / MB for cap in rate_caps]}
    flat = [result for _label, result in pairs]
    cursor = 0
    for block_size in block_sizes:
        key = f"block_{block_size // MB}mb"
        results[key] = flat[cursor : cursor + len(rate_caps)]
        cursor += len(rate_caps)
    return results
