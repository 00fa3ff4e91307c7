"""Cluster node runtime: DataNode-style machines over the message fabric.

Each :class:`ClusterNode` is one full simulated machine (built through
:func:`repro.experiments.common.build_node` into the shard's shared
Environment) plus the replication-protocol handlers: ``write_chunk``
appends to the local replica file under the billing account's local
task (which the node's Split-Token scheduler throttles — the paper's
account-propagation protocol), ``sync`` makes a closed block durable,
and ``ack`` resolves the gateway-side completion events client streams
wait on.

:class:`ClientStream` drives one tenant stream end to end: per block,
a NameNode-style placement RPC (placement itself is the pure function
:func:`place_block`, so no central NameNode process serializes the
fleet), then chunk-by-chunk pipelined writes to all replicas — a chunk
completes when the *slowest* replica acks, exactly the HDFS pipeline
bottleneck of the paper's Figure 21 — and a replica sync on block
close.

Determinism rules baked in here:

- tenant account tasks are pre-spawned at node build, in contract
  order, so their pids never depend on runtime interleaving;
- block placement derives from ``(seed, stream, block_index)`` — no
  shared RNG whose draw order could depend on the shard layout;
- all throughput/latency samples are taken at the *gateway* node from
  ack arrival times, which the conservative sync protocol makes
  layout-independent.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional

from repro.config import ClusterConfig
from repro.faults.errors import EIO
from repro.sim.shard.channel import ShardRouter
from repro.sim.shard.message import ShardMessage


class StreamSpec(NamedTuple):
    """One declarative tenant stream, handed to its gateway's shard."""

    stream_id: int  # cluster-wide stream index
    tenant: str  # billing account / contract name
    gateway: int  # node whose shard hosts the client driver
    size: int  # bytes to write (duration usually stops it first)


def place_block(seed: int, stream_id: int, block_index: int, nodes: int, replication: int) -> List[int]:
    """Replica nodes for one block — a pure function of its identity.

    NameNode-style random placement (the load-imbalance source Figure
    21 studies), derived from ``(seed, stream, block)`` so every shard
    — and every shard *count* — computes the identical placement
    without consulting a central entity.
    """
    mix = (seed * 1_000_003 + stream_id) * 1_000_033 + block_index
    return random.Random(mix).sample(range(nodes), replication)


class ClusterNode:
    """One fleet machine: local stack, tenant tasks, protocol handlers."""

    __slots__ = (
        "env",
        "router",
        "cluster",
        "index",
        "machine",
        "tasks",
        "buckets",
        "bytes_written",
        "chunk_errors",
        "_pending",
        "_corr",
    )

    def __init__(self, env, router: ShardRouter, cluster: ClusterConfig, index: int):
        from repro.experiments.common import build_node, session

        config = cluster.node_config(index)
        plan = config.make_fault_plan()
        if plan is None or plan.empty:
            fault = session().fault
            plan = fault[0] if fault is not None else None
        if plan is not None and plan.power_loss_at is not None:
            # A power cut halts the whole shard Environment, which would
            # take co-hosted nodes down with it — a shard-layout-
            # dependent blast radius.  Refuse rather than silently
            # desynchronize; single-stack experiments still crash freely.
            raise ValueError(
                f"node {index}: power_loss_at is not supported in cluster "
                "runs (a halt would stop every co-hosted node)"
            )
        self.env = env
        self.router = router
        self.cluster = cluster
        self.index = index
        self.machine = build_node(env, config, node_index=index)
        #: Tenant name -> pre-spawned local billing task.
        self.tasks: Dict[str, object] = {}
        #: Tenant name -> local token bucket (throttled tenants only).
        self.buckets: Dict[str, object] = {}
        for contract in cluster.tenants:
            task = self.machine.spawn(f"dn{index}-{contract.name}")
            self.tasks[contract.name] = task
            if contract.rate_per_node is not None:
                scheduler = self.machine.scheduler
                if scheduler is None or not hasattr(scheduler, "set_limit"):
                    raise ValueError(
                        f"node {index}: tenant {contract.name!r} has a rate "
                        "contract but the node scheduler cannot throttle"
                    )
                self.buckets[contract.name] = scheduler.set_limit(
                    task, contract.rate_per_node
                )
        self.bytes_written = 0
        self.chunk_errors = 0
        #: Gateway-side pending completions: corr -> [event, remaining].
        self._pending: Dict[int, list] = {}
        self._corr = 0

    # -- gateway side (client requests) ------------------------------------

    def _await_all(self, replicas: List[int], kind: str, payload: Dict):
        """Send *kind* to every replica; an event triggering on all acks."""
        self._corr += 1
        corr = self._corr
        event = self.env.event()
        self._pending[corr] = [event, len(replicas), 0]
        message = dict(payload, reply_to=self.index, corr=corr)
        for replica in replicas:
            self.router.send(self.index, replica, kind, message)
        return event

    def request_chunk(self, replicas: List[int], tenant: str, path: str, nbytes: int):
        """Pipeline one chunk to all replicas; event fires on last ack."""
        return self._await_all(
            replicas, "write_chunk", {"tenant": tenant, "path": path, "nbytes": nbytes}
        )

    def request_sync(self, replicas: List[int], tenant: str, path: str):
        """Block close: ask all replicas to make the replica durable."""
        return self._await_all(replicas, "sync", {"tenant": tenant, "path": path})

    # -- replica side (message handlers) -----------------------------------

    def on_message(self, message: ShardMessage) -> None:
        """Dispatch one delivered message (called at its arrival time)."""
        kind = message.kind
        if kind == "ack":
            self._on_ack(message.payload)
        elif kind == "write_chunk":
            self.env.process(
                self._handle_write_chunk(message),
                name=f"dn{self.index}-write",
            )
        elif kind == "sync":
            self.env.process(
                self._handle_sync(message), name=f"dn{self.index}-sync"
            )
        else:
            raise ValueError(f"node {self.index}: unknown message kind {kind!r}")

    def _on_ack(self, payload: Dict) -> None:
        entry = self._pending.get(payload["corr"])
        if entry is None:
            return  # duplicate/late ack for an already-resolved request
        event, remaining, errors = entry
        remaining -= 1
        errors += payload.get("error", 0)
        if remaining <= 0:
            del self._pending[payload["corr"]]
            event.succeed({"errors": errors})
        else:
            entry[1] = remaining
            entry[2] = errors

    def _handle_write_chunk(self, message: ShardMessage):
        payload = message.payload
        task = self.tasks[payload["tenant"]]
        error = 0
        try:
            handle = yield from self.machine.open(task, payload["path"], create=True)
            n = yield from handle.append(payload["nbytes"])
            self.bytes_written += n
        except EIO:
            self.chunk_errors += 1
            error = 1
        self.router.send(
            self.index, payload["reply_to"], "ack",
            {"corr": payload["corr"], "error": error},
        )

    def _handle_sync(self, message: ShardMessage):
        payload = message.payload
        task = self.tasks[payload["tenant"]]
        error = 0
        inode = self.machine.fs.lookup(payload["path"])
        if inode is not None:
            try:
                yield from self.machine.fsync(task, inode)
            except EIO:
                self.chunk_errors += 1
                error = 1
        self.router.send(
            self.index, payload["reply_to"], "ack",
            {"corr": payload["corr"], "error": error},
        )

    # -- reporting ----------------------------------------------------------

    def token_ledger(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant normalized-byte accounting on this node."""
        ledger = {}
        for name, bucket in self.buckets.items():
            ledger[name] = {
                "charged": bucket.charged_total,
                "refunded": bucket.refunded_total,
                "net": bucket.charged_total - bucket.refunded_total,
            }
        return ledger

    def conservation(self) -> Dict[str, int]:
        """Block-layer request accounting for the invariant checks."""
        queue = self.machine.block_queue
        return {
            "submitted": queue.submitted,
            "completed": queue.completed,
            "failed": queue.failed,
            "inflight": queue.inflight_count,
        }


class ClientStream:
    """One tenant stream: pipelined block writes through a gateway node."""

    __slots__ = (
        "node",
        "spec",
        "cluster",
        "until",
        "bytes_acked",
        "chunk_errors",
        "latencies",
        "process",
    )

    def __init__(self, gateway: "ClusterNode", spec: StreamSpec, duration: float):
        self.node = gateway
        self.spec = spec
        self.cluster = gateway.cluster
        self.until = duration
        self.bytes_acked = 0
        self.chunk_errors = 0
        #: Client-observed chunk round-trip latencies (send -> last ack).
        self.latencies: List[float] = []
        self.process: Optional[object] = None

    def start(self) -> None:
        self.process = self.node.env.process(
            self._run(), name=f"stream{self.spec.stream_id}-{self.spec.tenant}"
        )

    @property
    def finished(self) -> bool:
        return self.process is not None and not self.process.is_alive

    def _run(self):
        env = self.node.env
        cluster = self.cluster
        spec = self.spec
        written = 0
        block_index = 0
        while written < spec.size and env.now < self.until:
            replicas = place_block(
                cluster.seed, spec.stream_id, block_index,
                cluster.nodes, cluster.replication,
            )
            # NameNode lookup RPC: placement is a pure function, but the
            # client still pays one control-plane round trip per block.
            yield env.timeout(2 * cluster.link_latency)
            block_remaining = min(cluster.block_size, spec.size - written)
            path = f"/{spec.tenant}-s{spec.stream_id}.blk{block_index}"
            while block_remaining > 0:
                if env.now >= self.until:
                    return written
                nbytes = min(cluster.chunk, block_remaining)
                sent_at = env.now
                outcome = yield self.node.request_chunk(
                    replicas, spec.tenant, path, nbytes
                )
                block_remaining -= nbytes
                written += nbytes
                if outcome["errors"]:
                    self.chunk_errors += outcome["errors"]
                else:
                    self.bytes_acked += nbytes
                self.latencies.append(env.now - sent_at)
            if env.now >= self.until:
                return written
            # Block close: replicas sync to disk (HDFS semantics), which
            # keeps the pipeline disk-bound instead of cache-absorbed.
            yield self.node.request_sync(replicas, spec.tenant, path)
            block_index += 1
        return written

    def report(self) -> Dict:
        """Picklable per-stream raw metrics (merged by the coordinator)."""
        return {
            "stream_id": self.spec.stream_id,
            "tenant": self.spec.tenant,
            "gateway": self.spec.gateway,
            "bytes_acked": self.bytes_acked,
            "chunk_errors": self.chunk_errors,
            "latencies": self.latencies,
        }
