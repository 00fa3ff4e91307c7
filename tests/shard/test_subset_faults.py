"""Fault plans targeting a subset of the fleet's shards.

The campaign invariants (conservation, isolation) were written for
single-stack runs; these tests pin them down for cluster runs where
only some nodes carry a fault plan — including the case where the
faulty nodes all land in one shard and the clean nodes in another.
"""

import json

import pytest

from repro.config import ClusterConfig, StackConfig, TenantContract
from repro.faults import FaultPlan
from repro.sim.shard import StreamSpec, run_cluster
from repro.units import MB

FAULTY = StackConfig(
    scheduler="split-token",
    fault_plan=FaultPlan(write_error_prob=0.3, error_latency=0.002),
    fault_seed=5,
)


def _cluster():
    return ClusterConfig(
        nodes=6,
        replication=2,
        block_size=4 * MB,
        chunk=1 * MB,
        node_overrides=((0, FAULTY), (1, FAULTY)),
        tenants=(
            TenantContract("throttled", rate_per_node=8 * MB),
            TenantContract("free"),
        ),
        seed=29,
    )


def _streams():
    return [
        StreamSpec(i, "throttled" if i % 2 == 0 else "free", i % 6, 64 * MB)
        for i in range(6)
    ]


def _run(shards, drain=True):
    return run_cluster(
        _cluster(), _streams(), duration=0.1, shards=shards, drain=drain,
    )


def test_conservation_holds_with_subset_faults():
    result = _run(shards=3)
    conservation = result["conservation"]
    assert conservation["submitted"] > 0
    assert conservation["submitted"] == conservation["completed"] + conservation["failed"]
    assert conservation["inflight"] == 0


def test_faults_confined_to_targeted_nodes():
    result = _run(shards=3)
    per_node = result["per_node"]
    # The block layer retries transient errors, so faulty nodes may
    # still complete everything — but clean nodes must never fail.
    for index in range(2, 6):
        assert per_node[index]["conservation"]["failed"] == 0
        assert per_node[index]["chunk_errors"] == 0


def test_subset_faults_layout_independent():
    def comparable(result):
        return json.dumps(
            {key: value for key, value in result.items() if key != "meta"},
            sort_keys=True,
        )

    # Shard layouts that split the faulty pair and ones that isolate it
    # must agree byte-for-byte.
    assert comparable(_run(shards=1)) == comparable(_run(shards=2))
    assert comparable(_run(shards=1)) == comparable(_run(shards=6))


def test_isolation_bound_survives_faulty_minority():
    duration = 1.0
    result = run_cluster(_cluster(), _streams(), duration=duration, shards=2)
    cluster = _cluster()
    bound_mbps = (8 * MB / cluster.replication) * cluster.nodes / MB
    # Token enforcement is local and unaffected by the faulty nodes'
    # retries: the throttled tenant stays under its cluster-wide bound
    # plus the initial burst (each bucket starts with one cap — a
    # second's worth of tokens — so a run of D seconds may pass
    # bound*(D+1)/D before steady-state throttling pins it).
    allowed = bound_mbps * (duration + 1.0) / duration
    assert result["tenants"]["throttled"]["mbps"] <= allowed * 1.1


def test_power_loss_plans_rejected_in_cluster_runs():
    broken = ClusterConfig(
        nodes=2,
        replication=1,
        tenants=(TenantContract("free"),),
        node_overrides=(
            (0, StackConfig(fault_plan=FaultPlan(power_loss_at=0.05))),
        ),
    )
    with pytest.raises(ValueError, match="power_loss_at"):
        run_cluster(broken, [StreamSpec(0, "free", 0, MB)], duration=0.1)
