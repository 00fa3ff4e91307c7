"""Timestamped inter-node messages and their canonical ordering.

A :class:`ShardMessage` is the only way state crosses node boundaries
in a sharded run.  Its identity triple ``(arrival, src_node, seq)`` is
*shard-layout independent* — the send time, sending node, and that
node's own send counter don't change when the fleet is re-partitioned
— so sorting any batch of messages by :func:`canonical_order` yields
the same delivery sequence whether the batch was collected from one
shard or sixteen, in whatever order the shards pushed their outboxes.
That sort key is the heart of the determinism guarantee.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Tuple


class ShardMessage(NamedTuple):
    """One timestamped message between two cluster nodes."""

    arrival: float  # simulated delivery time (send time + link latency)
    src_node: int  # sending node index (cluster-wide)
    seq: int  # per-source send counter (cluster-wide meaning)
    dst_node: int  # receiving node index
    kind: str  # handler selector, e.g. "write_chunk", "ack"
    payload: Dict[str, Any]  # JSON-able handler arguments


def canonical_order(message: ShardMessage) -> Tuple[float, int, int]:
    """The shard-layout-independent sort key for per-epoch delivery."""
    return (message.arrival, message.src_node, message.seq)
