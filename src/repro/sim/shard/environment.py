"""One shard: a private Environment hosting a partition of the fleet.

A :class:`ShardEnvironment` owns a contiguous slice of the cluster's
node indices.  Each node is a full simulated machine (built via
:func:`repro.experiments.common.build_node` into the shard's single
event loop) and the shard also hosts the client stream drivers whose
gateway node lives here.  The coordinator talks to a shard in four
verbs, and asks after each epoch whether it is still busy (drain mode
stops once no shard is):

``inject(messages)``
    Schedule this epoch's inbound messages for delivery at their
    arrival times, in the canonical order the channel sorted them.
``run_until(t)``
    Advance the shard's event loop to the epoch boundary.
``drain_outbox()``
    Hand back every message sent during the epoch.
``finish()``
    Render per-stream and per-node metrics as plain dicts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.config import ClusterConfig
from repro.sim.shard.channel import ShardRouter
from repro.sim.shard.cluster import ClientStream, ClusterNode, StreamSpec
from repro.sim.shard.message import ShardMessage


class ShardEnvironment:
    """A partition of the fleet sharing one event loop."""

    def __init__(
        self,
        cluster: ClusterConfig,
        shard_index: int,
        node_indices: Sequence[int],
        specs: Iterable[StreamSpec],
        duration: float,
    ):
        if not node_indices:
            raise ValueError(f"shard {shard_index} owns no nodes")
        from repro.experiments.common import make_environment, session

        self.cluster = cluster
        self.shard_index = shard_index
        #: With the session sanitize flag on, the shard's event loop is
        #: a SanitizedEnvironment and inject() enforces conservative-
        #: sync causality per delivered message.
        self.sanitize = session().sanitize
        self.env = make_environment(self.sanitize)
        self.router = ShardRouter(self.env, shard_index, cluster.link_latency)
        #: Node index -> machine, built in ascending index order so the
        #: build sequence (and thus each node's id namespace) matches
        #: the 1-shard run exactly.
        self.nodes: Dict[int, ClusterNode] = {}
        for index in sorted(node_indices):
            self.nodes[index] = ClusterNode(self.env, self.router, cluster, index)
        #: Client drivers gatewayed through this shard's nodes, started
        #: in stream_id order (their only interleaving at t=0).
        self.clients: List[ClientStream] = []
        for spec in sorted(specs, key=lambda s: s.stream_id):
            if spec.gateway not in self.nodes:
                raise ValueError(
                    f"stream {spec.stream_id} gateway {spec.gateway} is not "
                    f"hosted by shard {shard_index}"
                )
            client = ClientStream(self.nodes[spec.gateway], spec, duration)
            client.start()
            self.clients.append(client)

    # -- epoch verbs --------------------------------------------------------

    def inject(self, messages: List[ShardMessage]) -> None:
        """Deliver *messages* (canonically pre-sorted) at their arrivals.

        Every message gets its own timeout event, and all of them are
        created here at the epoch barrier.  That pins the tie-break
        position of each delivery relative to the receiving node's own
        events regardless of shard layout: events pending from before
        the barrier always fire first at a shared timestamp (older
        ids), events created during the epoch always fire after
        (younger ids), and same-arrival deliveries fire in the
        canonical order because they are created in it.  A single
        walker process would instead create each timeout at the
        *previous* message's arrival — a creation time that shifts
        with whichever co-hosted node's traffic precedes it, leaking
        the shard layout into same-timestamp event ordering.
        """
        now = self.env.now
        if self.sanitize:
            from repro.analysis.sanitizer import check_delivery

            for message in messages:
                check_delivery(now, message.arrival, message)
        for message in messages:
            event = self.env.timeout(message.arrival - now)
            event.callbacks.append(self._make_delivery(message))

    def _make_delivery(self, message: ShardMessage):
        node = self.nodes[message.dst_node]
        return lambda _event: node.on_message(message)

    def run_until(self, t: float) -> None:
        """Advance the shard's clock to the epoch boundary *t*."""
        self.env.run(until=t)

    def drain_outbox(self) -> List[ShardMessage]:
        """Messages sent this epoch (epoch-barrier handoff)."""
        return self.router.drain_outbox()

    def busy(self) -> bool:
        """Does the shard still have protocol work in flight?

        Used by the coordinator's drain mode to decide when the fleet
        has quiesced: a shard is busy while any client driver is alive,
        any gateway still awaits acks, or any node's block queue has
        requests in flight.
        """
        if any(not client.finished for client in self.clients):
            return True
        for node in self.nodes.values():
            if node._pending or node.conservation()["inflight"]:
                return True
        return False

    # -- reporting ----------------------------------------------------------

    def finish(self) -> Dict:
        """Per-shard results, in canonical node/stream order."""
        return {
            "now": self.env.now,
            "streams": [client.report() for client in self.clients],
            "nodes": {
                index: {
                    "bytes_written": node.bytes_written,
                    "chunk_errors": node.chunk_errors,
                    "ledger": node.token_ledger(),
                    "conservation": node.conservation(),
                }
                for index, node in sorted(self.nodes.items())
            },
        }
