"""The inter-shard message fabric: routers, channel, epoch delivery.

Two halves:

- :class:`ShardRouter` lives inside one shard's Environment.  Node
  runtimes call :meth:`ShardRouter.send` in simulated time; the router
  stamps each message with its arrival time (now + link latency) and a
  per-source sequence number, and parks it in the shard's outbox.  At
  the epoch barrier the coordinator drains every outbox.

- :class:`InterShardChannel` is the coordinator-side store.  It pools
  the drained messages (in any order — which shard pushed first must
  not matter) and, per epoch, hands each shard the batch of
  messages arriving inside that epoch, sorted canonically by
  ``(arrival, src_node, seq)``.  Because the sort key never mentions a
  shard, delivery order is a pure function of the message set — the
  property the ordering property test pins down.

The conservative-synchronization invariant is checked, not assumed:
a router refuses to send with a latency below the channel's epoch
width, and the channel refuses to release a message into an epoch
that has already started.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.sim.shard.message import ShardMessage, canonical_order


class ShardRouter:
    """One shard's sending side of the message fabric."""

    def __init__(self, env, shard_index: int, link_latency: float):
        if link_latency <= 0:
            raise ValueError(f"link_latency must be positive, got {link_latency}")
        self.env = env
        self.shard_index = shard_index
        self.link_latency = link_latency
        self._outbox: List[ShardMessage] = []
        #: Per-source send counters.  Keyed by cluster-wide node index,
        #: so a node's sequence numbers are identical under any
        #: partitioning of the fleet.
        self._seqs: Dict[int, int] = {}

    def send(
        self, src_node: int, dst_node: int, kind: str, payload: Dict[str, Any]
    ) -> ShardMessage:
        """Emit one message; it arrives ``link_latency`` later.

        Self-sends and co-shard sends take the same path as remote
        ones — uniform latency and barrier delivery are what make the
        simulation insensitive to the shard layout.
        """
        seq = self._seqs.get(src_node, 0)
        self._seqs[src_node] = seq + 1
        message = ShardMessage(
            arrival=self.env.now + self.link_latency,
            src_node=src_node,
            seq=seq,
            dst_node=dst_node,
            kind=kind,
            payload=payload,
        )
        self._outbox.append(message)
        return message

    def drain_outbox(self) -> List[ShardMessage]:
        """Messages sent since the last drain (epoch-barrier handoff)."""
        out = self._outbox
        self._outbox = []
        return out


class InterShardChannel:
    """Coordinator-side message pool with canonical per-epoch delivery."""

    def __init__(self, epoch: float, sanitize: bool = False):
        if epoch <= 0:
            raise ValueError(f"epoch width must be positive, got {epoch}")
        self.epoch = epoch
        self._pending: List[ShardMessage] = []
        #: Start of the earliest epoch not yet delivered; push() rejects
        #: messages that would have to arrive before it (a message from
        #: the receiving shard's past — the conservative-sync bug this
        #: class exists to make impossible).
        self._released_until = 0.0
        #: Sanitize mode: additionally track every (src_node, seq) pair
        #: ever pushed and fail on a duplicate — a re-sent or doubly
        #: drained message would silently reorder canonical delivery.
        self.sanitize = bool(sanitize)
        self._seen_seqs = set() if self.sanitize else None

    def push(self, messages: List[ShardMessage]) -> None:
        """Pool freshly drained outbox messages (any order)."""
        for message in messages:
            if message.arrival < self._released_until:
                raise RuntimeError(
                    f"message {message!r} arrives at {message.arrival} but "
                    f"epochs up to {self._released_until} already ran — "
                    "link latency below the sync window?"
                )
        if self._seen_seqs is not None:
            from repro.analysis.sanitizer import SanitizerError

            for message in messages:
                key = (message.src_node, message.seq)
                if key in self._seen_seqs:
                    raise SanitizerError(
                        "duplicate shard message: the same (src_node, seq) "
                        "was pushed twice — a re-send or double drain would "
                        "silently reorder canonical delivery",
                        context={
                            "src_node": message.src_node,
                            "seq": message.seq,
                            "kind": message.kind,
                            "arrival": message.arrival,
                        },
                    )
                self._seen_seqs.add(key)
        self._pending.extend(messages)

    def pending_count(self) -> int:
        return len(self._pending)

    def due(self, t_start: float, t_end: float) -> Dict[int, List[ShardMessage]]:
        """Messages arriving in ``[t_start, t_end)``, per destination node.

        The returned lists are sorted by the canonical key, so every
        destination shard injects them in the same order no matter how
        the pool was filled.  Marks the epoch as released.
        """
        due: List[ShardMessage] = []
        keep: List[ShardMessage] = []
        for message in self._pending:
            (due if t_start <= message.arrival < t_end else keep).append(message)
        self._pending = keep
        self._released_until = max(self._released_until, t_end)
        due.sort(key=canonical_order)
        by_node: Dict[int, List[ShardMessage]] = {}
        for message in due:
            by_node.setdefault(message.dst_node, []).append(message)
        return by_node
