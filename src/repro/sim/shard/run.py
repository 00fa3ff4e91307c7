"""The sharded-run coordinator: lockstep epochs over fleet partitions.

:class:`ShardedRun` drives a :class:`~repro.config.ClusterConfig` plus
a set of :class:`~repro.sim.shard.cluster.StreamSpec` tenant streams to
a merged metrics dict.  The fleet's nodes are partitioned contiguously
into shards, all hosted in this process; the shards step in turn
through epochs of width equal to the cluster link latency, exchanging
messages only at epoch barriers (the conservative window guarantees no
message can arrive inside its sending epoch, so barrier-only exchange
loses nothing).

A run stops *hard* at ``duration``: only bytes acked by then count,
and in-flight messages are dropped identically under any shard layout.
Invariant-checking callers pass ``drain=True`` to instead run extra
epochs until every shard quiesces, so conservation sums balance.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.config import ClusterConfig
from repro.sim.shard.channel import InterShardChannel
from repro.sim.shard.cluster import StreamSpec
from repro.sim.shard.environment import ShardEnvironment
from repro.units import MB

#: Safety valve for drain mode: a fleet that hasn't quiesced after this
#: many post-duration epochs is wedged (a lost ack), not slow.
MAX_DRAIN_EPOCHS = 100_000


def partition_nodes(nodes: int, shards: int) -> List[List[int]]:
    """Split node indices 0..nodes-1 into contiguous near-equal shards.

    Contiguity keeps the mapping obvious in traces; near-equality
    (sizes differ by at most one) balances the shards' work.  ``shards`` is
    clamped to ``nodes`` so every shard owns at least one node.
    """
    if nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = min(shards, nodes)
    base, extra = divmod(nodes, shards)
    out: List[List[int]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        out.append(list(range(start, start + size)))
        start += size
    return out


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


class ShardedRun:
    """Coordinate one cluster scenario across N lockstep shards."""

    def __init__(
        self,
        cluster: ClusterConfig,
        streams: Sequence[StreamSpec],
        duration: float,
        shards: int = 1,
        drain: bool = False,
    ):
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        for spec in streams:
            if not 0 <= spec.gateway < cluster.nodes:
                raise ValueError(
                    f"stream {spec.stream_id} gateway {spec.gateway} outside "
                    f"fleet of {cluster.nodes} nodes"
                )
            if cluster.contract(spec.tenant) is None:
                raise ValueError(
                    f"stream {spec.stream_id} names unknown tenant {spec.tenant!r}"
                )
        self.cluster = cluster
        self.streams = list(streams)
        self.duration = float(duration)
        #: Raises for shards < 1; clamps a count above the fleet size.
        self.partitions = partition_nodes(cluster.nodes, shards)
        self.shards = len(self.partitions)
        self.drain = drain
        self.epochs_run = 0

    def run(self) -> Dict:
        """Execute the epoch loop; return the merged metrics dict."""
        from repro.experiments.common import session

        node_to_shard = {
            node: shard for shard, nodes in enumerate(self.partitions) for node in nodes
        }
        shards = [
            ShardEnvironment(
                self.cluster, index, nodes,
                [s for s in self.streams if node_to_shard[s.gateway] == index],
                self.duration,
            )
            for index, nodes in enumerate(self.partitions)
        ]
        epoch = self.cluster.link_latency
        channel = InterShardChannel(epoch, sanitize=session().sanitize)
        t = 0.0
        busy = True
        while True:
            past_duration = t >= self.duration
            if past_duration and not self.drain:
                break
            if past_duration and not busy and channel.pending_count() == 0:
                break
            if self.epochs_run - int(self.duration / epoch) > MAX_DRAIN_EPOCHS:
                raise RuntimeError(
                    f"fleet failed to quiesce after {MAX_DRAIN_EPOCHS} "
                    "drain epochs — protocol deadlock?"
                )
            t_next = t + epoch if past_duration else min(t + epoch, self.duration)
            due = channel.due(t, t_next)
            per_shard: List[List] = [[] for _ in shards]
            for node, messages in due.items():
                per_shard[node_to_shard[node]].extend(messages)
            busy = False
            for shard, messages in zip(shards, per_shard):
                shard.inject(messages)
                shard.run_until(t_next)
                channel.push(shard.drain_outbox())
                busy = shard.busy() or busy
            t = t_next
            self.epochs_run += 1
        return self._merge([shard.finish() for shard in shards])

    def _merge(self, payloads: List[Dict]) -> Dict:
        """Fold per-shard payloads into the canonical result dict."""
        stream_reports: List[Dict] = []
        nodes: Dict[int, Dict] = {}
        for payload in payloads:
            stream_reports.extend(payload["streams"])
            nodes.update(payload["nodes"])
        stream_reports.sort(key=lambda r: r["stream_id"])

        tenants: Dict[str, Dict] = {}
        for contract in self.cluster.tenants:
            tenants[contract.name] = {
                "bytes": 0,
                "streams": 0,
                "chunk_errors": 0,
                "latencies": [],
            }
        for report in stream_reports:
            bucket = tenants[report["tenant"]]
            bucket["bytes"] += report["bytes_acked"]
            bucket["streams"] += 1
            bucket["chunk_errors"] += report["chunk_errors"]
            bucket["latencies"].extend(report["latencies"])
        for name, bucket in tenants.items():
            samples = bucket.pop("latencies")
            bucket["mbps"] = bucket["bytes"] / self.duration / MB
            bucket["chunk_p50"] = _percentile(samples, 50)
            bucket["chunk_p99"] = _percentile(samples, 99)
            ledger = {"charged": 0.0, "refunded": 0.0, "net": 0.0}
            for node in nodes.values():
                entry = node["ledger"].get(name)
                if entry is not None:
                    for key in ledger:
                        ledger[key] += entry[key]
            bucket["tokens"] = ledger

        conservation = {"submitted": 0, "completed": 0, "failed": 0, "inflight": 0}
        for node in nodes.values():
            for key in conservation:
                conservation[key] += node["conservation"][key]

        return {
            "tenants": tenants,
            "per_stream": stream_reports,
            "per_node": {
                index: {
                    "bytes_written": node["bytes_written"],
                    "chunk_errors": node["chunk_errors"],
                    "conservation": node["conservation"],
                }
                for index, node in sorted(nodes.items())
            },
            "conservation": conservation,
            "meta": {
                "nodes": self.cluster.nodes,
                "streams": len(self.streams),
                "shards": self.shards,
                "epochs": self.epochs_run,
                "duration": self.duration,
                "drained": self.drain,
            },
        }


def run_cluster(
    cluster: ClusterConfig,
    streams: Sequence[StreamSpec],
    duration: float,
    shards: int = 1,
    drain: bool = False,
) -> Dict:
    """One-call convenience wrapper around :class:`ShardedRun`."""
    return ShardedRun(cluster, streams, duration, shards=shards, drain=drain).run()
