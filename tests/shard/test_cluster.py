"""ClusterConfig, placement, and cluster-run behavior basics."""

import pytest

from repro.config import ClusterConfig, StackConfig, TenantContract
from repro.sim.shard import StreamSpec, place_block, run_cluster
from repro.units import MB


class TestClusterConfig:
    """Validation and lookups of the fleet description."""

    def test_round_trips_through_dict(self):
        cluster = ClusterConfig(
            nodes=5,
            node=StackConfig(scheduler="split-token", device="ssd"),
            node_overrides=((2, StackConfig(device="hdd")),),
            replication=2,
            block_size=8 * MB,
            chunk=1 * MB,
            link_latency=0.25e-3,
            tenants=(TenantContract("a", rate_per_node=4 * MB), TenantContract("b")),
            seed=9,
        )
        assert cluster.node_config(2).device == "hdd"
        assert cluster.node_config(0).device == "ssd"
        assert cluster.contract("a").rate_per_node == 4 * MB
        assert cluster.contract("missing") is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(nodes=2, replication=3)
        with pytest.raises(ValueError):
            ClusterConfig(nodes=2, link_latency=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(nodes=2, replication=1, node_overrides=((5, StackConfig()),))
        with pytest.raises(ValueError):
            ClusterConfig(
                nodes=2, replication=1,
                tenants=(TenantContract("a"), TenantContract("a")),
            )

    def test_replication_cannot_exceed_nodes(self):
        with pytest.raises(ValueError, match=r"replication 3 outside \[1, 2\]"):
            ClusterConfig(nodes=2, replication=3)
        assert ClusterConfig(nodes=3, replication=3).replication == 3

    def test_replace(self):
        cluster = ClusterConfig(nodes=4, replication=2)
        bigger = cluster.replace(nodes=8)
        assert bigger.nodes == 8 and bigger.replication == 2
        assert cluster.nodes == 4  # frozen original untouched


class TestPlacement:
    """The pure placement function."""

    def test_is_deterministic_and_valid(self):
        a = place_block(3, 7, 11, nodes=10, replication=3)
        b = place_block(3, 7, 11, nodes=10, replication=3)
        assert a == b
        assert len(set(a)) == 3
        assert all(0 <= n < 10 for n in a)

    def test_replicas_are_distinct_nodes(self):
        for block in range(64):
            replicas = place_block(1, 0, block, nodes=5, replication=3)
            assert len(replicas) == 3
            assert len(set(replicas)) == 3

    def test_spreads_over_blocks(self):
        placements = {
            tuple(place_block(0, 0, block, nodes=8, replication=3))
            for block in range(32)
        }
        assert len(placements) > 8  # random placement, not round-robin


class TestClusterRun:
    """End-to-end behavior of small sharded runs."""

    def test_throttled_tenant_respects_cluster_bound(self):
        cap = 4 * MB
        cluster = ClusterConfig(
            nodes=4,
            replication=2,
            block_size=4 * MB,
            tenants=(TenantContract("limited", rate_per_node=cap),),
            seed=1,
        )
        streams = [StreamSpec(i, "limited", i, 64 * MB) for i in range(4)]
        result = run_cluster(cluster, streams, duration=1.0, shards=2)
        bound_mbps = (cap / 2) * 4 / MB
        mbps = result["tenants"]["limited"]["mbps"]
        assert 0 < mbps
        # Allow the initial token burst (one bucket cap per node).
        burst_mbps = (cap * 4 / MB) / 1.0
        assert mbps <= bound_mbps * 1.1 + burst_mbps

    def test_replication_multiplies_disk_bytes(self):
        cluster = ClusterConfig(
            nodes=4,
            replication=3,
            block_size=4 * MB,
            tenants=(TenantContract("free"),),
            seed=2,
        )
        streams = [StreamSpec(0, "free", 0, 64 * MB)]
        result = run_cluster(
            cluster, streams, duration=0.1, shards=1, drain=True,
        )
        acked = result["tenants"]["free"]["bytes"]
        disk = sum(node["bytes_written"] for node in result["per_node"].values())
        assert acked > 0
        # Every acked byte landed on all three replicas; bytes still in
        # flight at the stop may add one extra chunk per replica.
        assert disk >= 3 * acked

    def test_drained_write_lands_on_three_replicas(self):
        cluster = ClusterConfig(
            nodes=4,
            replication=3,
            block_size=4 * MB,
            tenants=(TenantContract("free"),),
            seed=2,
        )
        streams = [StreamSpec(0, "free", 0, 8 * MB)]
        result = run_cluster(cluster, streams, duration=1.0, shards=1, drain=True)
        assert result["tenants"]["free"]["bytes"] == 8 * MB
        # With the stream fully drained, the replica files hold exactly
        # three times the client bytes across the fleet.
        disk = sum(node["bytes_written"] for node in result["per_node"].values())
        assert disk == 3 * 8 * MB

    def test_each_block_gets_its_own_placement(self):
        cluster = ClusterConfig(
            nodes=5,
            replication=2,
            block_size=1 * MB,
            tenants=(TenantContract("free"),),
            seed=1,
        )
        streams = [StreamSpec(0, "free", 0, 6 * MB)]
        result = run_cluster(cluster, streams, duration=1.0, shards=1, drain=True)
        assert result["tenants"]["free"]["bytes"] == 6 * MB
        written = {
            index for index, node in result["per_node"].items() if node["bytes_written"]
        }
        placed = {
            replica
            for block in range(6)
            for replica in place_block(1, 0, block, nodes=5, replication=2)
        }
        # Six 1 MB blocks, each placed afresh, reach every node; one
        # placement for the whole stream would reach only two.
        assert written == placed == set(range(5))

    def test_rate_contract_needs_a_throttling_scheduler(self):
        cluster = ClusterConfig(
            nodes=3,
            replication=2,
            node=StackConfig(scheduler="noop"),
            tenants=(TenantContract("a", rate_per_node=1 * MB),),
        )
        streams = [StreamSpec(0, "a", 0, 4 * MB)]
        with pytest.raises(
            ValueError,
            match="node 0: tenant 'a' has a rate contract but the node scheduler cannot throttle",
        ):
            run_cluster(cluster, streams, duration=0.1, shards=1)

    def test_throttled_tenant_writes_slower_than_unthrottled(self):
        def mbps(rate_per_node):
            cluster = ClusterConfig(
                nodes=4,
                replication=3,
                block_size=4 * MB,
                tenants=(TenantContract("a", rate_per_node=rate_per_node),),
            )
            streams = [StreamSpec(0, "a", 0, 1024 * MB)]
            result = run_cluster(cluster, streams, duration=2.0, shards=1)
            return result["tenants"]["a"]["mbps"]

        assert mbps(2 * MB) < mbps(None) / 2

    def test_token_ledger_aggregates_across_nodes(self):
        cluster = ClusterConfig(
            nodes=3,
            replication=2,
            block_size=2 * MB,
            tenants=(TenantContract("limited", rate_per_node=8 * MB),),
            seed=4,
        )
        streams = [StreamSpec(0, "limited", 0, 32 * MB)]
        result = run_cluster(cluster, streams, duration=0.1, shards=3)
        tokens = result["tenants"]["limited"]["tokens"]
        assert tokens["charged"] > 0
        assert tokens["net"] == pytest.approx(tokens["charged"] - tokens["refunded"])

    def test_meta_reports_fleet_shape(self):
        cluster = ClusterConfig(
            nodes=4, replication=2, tenants=(TenantContract("free"),), seed=0,
        )
        streams = [StreamSpec(0, "free", 0, 4 * MB)]
        result = run_cluster(cluster, streams, duration=0.02, shards=2)
        meta = result["meta"]
        assert meta["nodes"] == 4
        assert meta["shards"] == 2
        assert meta["epochs"] > 0
