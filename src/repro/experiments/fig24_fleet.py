"""Figure 24: fleet-scale tenant isolation under sharded simulation.

The Split-Token claim at fleet scale: because throttling is enforced
by *local* schedulers with purely local state, tenant isolation should
not degrade as the fleet grows — per-tenant throughput stays pinned to
the contract and its spread across tenants stays flat, whether the
fleet has 8 DataNodes or 64.  (A centralized throttler would show
coordination lag growing with fleet size.)

Each fleet-size point is one sharded cluster run: ``tenants_count``
contracts, ``streams_per_tenant_per_node × nodes`` streams per tenant
spread round-robin over gateway nodes, every block 3×-replicated to
nodes chosen by the NameNode-style placement function.  The figure
reports, per fleet size, the coefficient of variation (σ/mean) of
per-tenant throughput — the isolation metric, lower is better — and
the p99 client-observed chunk latency.

At the paper-scale defaults the largest point simulates a 64-DataNode
fleet carrying 1024 tenant streams; the benchmark suite runs a reduced
sweep with the same shape.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.config import ClusterConfig, TenantContract
from repro.sim.shard import StreamSpec, run_cluster
from repro.units import GB, MB

DEFAULT_FLEET_SIZES = (8, 16, 32, 64)


def run_cell(
    nodes: int,
    tenants_count: int = 16,
    streams_per_tenant_per_node: int = 1,
    rate_per_node: float = 2 * MB,
    duration: float = 2.0,
    block_size: int = 16 * MB,
    seed: int = 0,
    shards: int = 1,
) -> Dict:
    """One fleet-size point: a full sharded cluster run, summarized."""
    contracts = tuple(
        TenantContract(f"t{i:02d}", rate_per_node=rate_per_node)
        for i in range(tenants_count)
    )
    cluster = ClusterConfig(
        nodes=nodes,
        replication=3,
        block_size=block_size,
        tenants=contracts,
        seed=seed,
    )
    streams = []
    stream_id = 0
    per_tenant = streams_per_tenant_per_node * nodes
    for t in range(tenants_count):
        for j in range(per_tenant):
            gateway = (t + j * tenants_count) % nodes
            streams.append(StreamSpec(stream_id, f"t{t:02d}", gateway, 16 * GB))
            stream_id += 1
    result = run_cluster(cluster, streams, duration, shards=shards)

    rates = [result["tenants"][c.name]["mbps"] for c in contracts]
    mean = sum(rates) / len(rates)
    sigma = math.sqrt(sum((r - mean) ** 2 for r in rates) / len(rates))
    p99s = [result["tenants"][c.name]["chunk_p99"] for c in contracts]
    bound_mbps = (rate_per_node / cluster.replication) * nodes / MB
    return {
        "nodes": nodes,
        "streams": len(streams),
        "shards": result["meta"]["shards"],
        "tenant_mean_mbps": mean,
        "tenant_sigma_mbps": sigma,
        "isolation_cv": (sigma / mean) if mean else 0.0,
        "bound_mbps": bound_mbps,
        "bound_utilization": (mean / bound_mbps) if bound_mbps else 0.0,
        "chunk_p99_ms": max(p99s) * 1e3,
        "total_mbps": sum(rates),
    }


def cells(
    fleet_sizes: List[int] = DEFAULT_FLEET_SIZES,
    **kwargs,
) -> List:
    """One cell per fleet size; each cell is itself a sharded run."""
    return [
        (f"nodes{nodes}", "run_cell", dict(kwargs, nodes=nodes))
        for nodes in fleet_sizes
    ]


def merge(pairs: List, fleet_sizes: List[int] = DEFAULT_FLEET_SIZES, **_kwargs) -> Dict:
    """Reassemble per-fleet-size cells into the figure's output."""
    points = [result for _label, result in pairs]
    return {
        "fleet_sizes": list(fleet_sizes),
        "points": points,
        "isolation_cv": [p["isolation_cv"] for p in points],
        "chunk_p99_ms": [p["chunk_p99_ms"] for p in points],
    }
