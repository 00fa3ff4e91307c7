"""Serial-vs-sharded equivalence: the determinism guarantee.

The same ClusterConfig + streams must produce identical tenant
metrics no matter how the fleet is partitioned (1 shard vs K).
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
        run_cluster(_cluster(), _streams(), duration=0.1, shards=shards)
        for shards in (1, 2, 5)
    ]
    assert results[0]["tenants"]["free"]["bytes"] > 0
    reference = _comparable(results[0])
    for result in results[1:]:
        assert _comparable(result) == reference


def test_drain_mode_is_also_layout_independent():
    one = run_cluster(_cluster(), _streams(), duration=0.05, shards=1, drain=True)
    many = run_cluster(_cluster(), _streams(), duration=0.05, shards=4, drain=True)
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
    four = run_cluster(cluster, specs, duration=0.5, shards=4)
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


def test_shard_count_below_one_is_rejected():
    """A count below one is an error, not a silent single shard."""
    for shards in (0, -2):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            run_cluster(_cluster(), _streams(), duration=0.1, shards=shards)
    # Above the fleet size the count clamps to one node per shard.
    assert ShardedRun(_cluster(), _streams(), duration=0.1, shards=9).shards == 5


#: Reduced figure overrides for the 1-vs-K check through the runner.
FIG21_CELL = {"rate_caps": [8 * MB], "block_sizes": [16 * MB], "duration": 1.0}
FIG24_SWEEP = {"fleet_sizes": [4, 8], "tenants_count": 4, "duration": 0.5}


def _figure(key, overrides, shards):
    from repro.cli import _jsonable
    from repro.experiments import runner

    outcome = runner.run_experiment(key, dict(overrides, shards=shards))
    return _jsonable(outcome.result)


def test_fig21_cell_same_at_one_and_three_shards():
    one = _figure("fig21", FIG21_CELL, shards=1)
    three = _figure("fig21", FIG21_CELL, shards=3)
    assert one["block_16mb"][0]["throttled_mbps"] > 0
    assert json.dumps(one, sort_keys=True) == json.dumps(three, sort_keys=True)


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])
def test_fig24_sweep_same_at_one_and_three_shards(sanitize):
    """Equal output but for the per-point shard count; the sanitized run
    also checks the channel's causality guards across shard barriers."""
    from contextlib import nullcontext

    from repro.experiments import common

    def points(shards):
        with common.using(sanitize=True) if sanitize else nullcontext():
            result = _figure("fig24", FIG24_SWEEP, shards)
        assert all(point["total_mbps"] > 0 for point in result["points"])
        counts = [point.pop("shards") for point in result["points"]]
        return json.dumps(result, sort_keys=True), counts

    one, one_counts = points(1)
    three, three_counts = points(3)
    assert one_counts == [1, 1] and three_counts == [3, 3]
    assert one == three
