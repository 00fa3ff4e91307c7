"""Serial-vs-sharded equivalence: the determinism guarantee.

The same ClusterConfig + streams must produce identical tenant
metrics no matter how the fleet is partitioned (1 shard vs K) or which
vehicle executes the shards (inline stepping vs worker processes).
"""

import json

import pytest

from repro.config import ClusterConfig, TenantContract
from repro.sim.shard import ShardedRun, StreamSpec, partition_nodes, run_cluster
from repro.units import MB


def _cluster():
    return ClusterConfig(
        nodes=5,
        replication=2,
        block_size=4 * MB,
        chunk=1 * MB,
        tenants=(
            TenantContract("throttled", rate_per_node=8 * MB),
            TenantContract("free"),
        ),
        seed=11,
    )


def _streams():
    return [
        StreamSpec(0, "throttled", 0, 64 * MB),
        StreamSpec(1, "free", 1, 64 * MB),
        StreamSpec(2, "throttled", 2, 64 * MB),
        StreamSpec(3, "free", 3, 64 * MB),
        StreamSpec(4, "free", 4, 64 * MB),
    ]


def _comparable(result):
    """The layout-independent portion of a run result, JSON-normalized."""
    return json.dumps(
        {key: value for key, value in result.items() if key != "meta"},
        sort_keys=True,
    )


def test_one_vs_many_shards_identical_inline():
    results = [
        run_cluster(_cluster(), _streams(), duration=0.1, shards=shards, processes=False)
        for shards in (1, 2, 5)
    ]
    assert results[0]["tenants"]["free"]["bytes"] > 0
    reference = _comparable(results[0])
    for result in results[1:]:
        assert _comparable(result) == reference


def test_worker_processes_match_inline():
    inline = run_cluster(_cluster(), _streams(), duration=0.1, shards=3, processes=False)
    procs = run_cluster(_cluster(), _streams(), duration=0.1, shards=3, processes=True)
    assert procs["meta"]["processes"] is True
    assert _comparable(procs) == _comparable(inline)


def test_drain_mode_is_also_layout_independent():
    one = run_cluster(_cluster(), _streams(), duration=0.05, shards=1, drain=True)
    many = run_cluster(_cluster(), _streams(), duration=0.05, shards=4,
                       processes=False, drain=True)
    assert _comparable(one) == _comparable(many)
    conservation = one["conservation"]
    assert conservation["submitted"] == conservation["completed"] + conservation["failed"]
    assert conservation["inflight"] == 0


def test_single_node_shards_match_at_fleet_scale_config():
    """Regression: the fig24 fleet config diverged at 1 node per shard.

    With every node in its own shard, a replica's handler processes are
    spawned into an otherwise-quiet Environment.  While the kernel kept
    a front slot beside its heap (deleted since), a free slot let a
    process start slip behind same-instant deliveries and shift ack
    ordering by one syscall.  Longer horizon and heavier fan-in than
    the small cases above — this config is what actually caught it.
    """
    cluster = ClusterConfig(
        nodes=4,
        replication=3,
        block_size=16 * MB,
        tenants=tuple(
            TenantContract(f"t{i:02d}", rate_per_node=2 * MB) for i in range(4)
        ),
        seed=0,
    )
    specs = [
        StreamSpec(t * 4 + j, f"t{t:02d}", (t + j * 4) % 4, 16 * MB)
        for t in range(4)
        for j in range(4)
    ]
    one = run_cluster(cluster, specs, duration=0.5, shards=1)
    four = run_cluster(cluster, specs, duration=0.5, shards=4, processes=False)
    assert _comparable(one) == _comparable(four)


def test_partition_nodes_contiguous_and_balanced():
    parts = partition_nodes(10, 3)
    assert [len(p) for p in parts] == [4, 3, 3]
    assert [n for part in parts for n in part] == list(range(10))
    # More shards than nodes clamps to one node per shard.
    assert partition_nodes(2, 8) == [[0], [1]]


def test_sharded_run_validates_inputs():
    with pytest.raises(ValueError):
        ShardedRun(_cluster(), [StreamSpec(0, "nope", 0, MB)], duration=0.1)
    with pytest.raises(ValueError):
        ShardedRun(_cluster(), [StreamSpec(0, "free", 99, MB)], duration=0.1)
    with pytest.raises(ValueError):
        ShardedRun(_cluster(), _streams(), duration=0.0)


def test_session_default_shards_apply():
    from repro.experiments import common

    with common.using(shards=2):
        run = ShardedRun(_cluster(), _streams(), duration=0.1)
        assert run.shards == 2
