"""Shard-aware simulation core: partitioned Environments in lockstep.

A cluster scenario too large for one event loop is partitioned into
*shards*: each :class:`~repro.sim.shard.environment.ShardEnvironment`
owns a subset of the fleet's nodes (full syscall→cache→fs→block→device
stacks sharing one :class:`~repro.sim.core.Environment`) and the
client streams gatewayed through those nodes.  Shards exchange
timestamped messages (replication pipeline hops, NameNode-style RPCs)
through the :class:`~repro.sim.shard.channel.InterShardChannel` under
conservative time-windowed synchronization: all shards advance in
lockstep epochs no wider than the minimum inter-node link latency, so
a message sent in epoch *k* always arrives in epoch *k+1* or later —
no shard ever receives a message from its past.

Determinism is the design center, not an afterthought.  *Every*
inter-node message — even between nodes co-hosted in one shard — takes
the channel with the same latency and the same canonical per-epoch
delivery order ``(arrival, src_node, seq)``, and each node's stack is
built with node-local id namespaces and seeds.  A node's event
sequence therefore depends only on the cluster config and the message
schedule, never on which shard hosts it: running the same
:class:`~repro.config.ClusterConfig` with 1 shard or K shards produces
identical tenant metrics.  The ``shard-equivalence`` CI job and the
tier-1 shard tests hold this property.

:class:`~repro.sim.shard.run.ShardedRun` coordinates the epoch loop,
stepping every shard in turn inside one process.
"""

from repro.sim.shard.channel import InterShardChannel, ShardRouter
from repro.sim.shard.cluster import ClientStream, ClusterNode, StreamSpec, place_block
from repro.sim.shard.environment import ShardEnvironment
from repro.sim.shard.message import ShardMessage
from repro.sim.shard.run import ShardedRun, partition_nodes, run_cluster

__all__ = [
    "ClientStream",
    "ClusterNode",
    "InterShardChannel",
    "ShardEnvironment",
    "ShardMessage",
    "ShardRouter",
    "ShardedRun",
    "StreamSpec",
    "partition_nodes",
    "place_block",
    "run_cluster",
]
