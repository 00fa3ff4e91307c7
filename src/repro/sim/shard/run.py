"""The sharded-run coordinator: lockstep epochs over fleet partitions.

:class:`ShardedRun` drives a :class:`~repro.config.ClusterConfig` plus
a set of :class:`~repro.sim.shard.cluster.StreamSpec` tenant streams to
a merged metrics dict.  The fleet's nodes are partitioned contiguously
into shards; all shards advance through epochs of width equal to the
cluster link latency, exchanging messages only at epoch barriers (the
conservative window guarantees no message can arrive inside its
sending epoch, so barrier-only exchange loses nothing).

Two execution vehicles, same observable results by construction:

- **inline** — every shard lives in this process and steps
  sequentially inside the epoch loop.  This is the reference
  semantics, and the automatic fallback when worker processes are
  unavailable (e.g. inside a daemonic pool worker, which may not
  spawn children).
- **processes** — one worker process per shard, talking to the
  coordinator over a :func:`multiprocessing.Pipe` with a two-verb
  protocol (``epoch`` / ``finish``).  Cluster configs travel as dicts
  through :meth:`ClusterConfig.from_dict` — the same
  serialize-and-rebuild machinery the parallel experiment runner uses
  for stack configs — and each worker installs the coordinator's
  :class:`~repro.experiments.common.Session` once, as the runner's
  pool workers do.

A run stops *hard* at ``duration``: only bytes acked by then count,
and in-flight messages are dropped identically under any shard layout.
Invariant-checking callers pass ``drain=True`` to instead run extra
epochs until every shard quiesces, so conservation sums balance.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import Dict, List, Optional, Sequence

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
    (sizes differ by at most one) balances worker load.  ``shards`` is
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


def _shard_worker(conn, cluster_dict, shard_index, node_indices, specs, duration, session):
    """Worker-process main: host one shard and speak the epoch protocol.

    ``session`` is the coordinator's
    :class:`~repro.experiments.common.Session`, installed once so the
    --fault-*/--trace style settings keep applying inside shard workers,
    exactly as in the experiment runner's pool workers.  Installing also
    forgets the tracked queues and span builders a forked worker
    inherits from the parent's stacks.
    """
    from repro.experiments import common

    try:
        common.install(session)
        cluster = ClusterConfig.from_dict(cluster_dict)
        shard = ShardEnvironment(
            cluster, shard_index, node_indices,
            [StreamSpec(*spec) for spec in specs], duration,
        )
        while True:
            request = conn.recv()
            verb = request[0]
            if verb == "epoch":
                _verb, t_next, messages = request
                shard.inject(messages)
                shard.run_until(t_next)
                conn.send(("ok", shard.drain_outbox(), shard.busy()))
            elif verb == "finish":
                payload = shard.finish()
                payload["faults"] = common.drain_fault_summaries()
                payload["spans"] = common.drain_spans()
                conn.send(("done", payload))
                return
            else:  # pragma: no cover - protocol bug
                raise ValueError(f"unknown verb {verb!r}")
    except BaseException:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


class _InlineShard:
    """Adapter running one shard inside the coordinator process."""

    def __init__(self, cluster, shard_index, node_indices, specs, duration):
        self.shard = ShardEnvironment(cluster, shard_index, node_indices, specs, duration)

    def epoch(self, t_next, messages):
        self.shard.inject(messages)
        self.shard.run_until(t_next)
        return self.shard.drain_outbox(), self.shard.busy()

    def finish(self):
        # Faults/spans of inline shards sit in this process's session
        # state already; the caller's normal drain picks them up.
        return self.shard.finish()

    def close(self):
        """Nothing to tear down for an in-process shard."""


class _ProcessShard:
    """Adapter running one shard in a dedicated worker process."""

    def __init__(self, cluster, shard_index, node_indices, specs, duration, session):
        self._conn, child = multiprocessing.Pipe()
        self._proc = multiprocessing.Process(
            target=_shard_worker,
            args=(
                child, cluster.to_dict(), shard_index, list(node_indices),
                [tuple(spec) for spec in specs], duration, session,
            ),
            name=f"shard-{shard_index}",
        )
        self._proc.start()
        child.close()

    def send_epoch(self, t_next, messages):
        self._conn.send(("epoch", t_next, messages))

    def recv(self):
        reply = self._conn.recv()
        if reply[0] == "error":
            raise RuntimeError(f"shard worker failed:\n{reply[1]}")
        return reply[1:]

    def finish(self):
        self._conn.send(("finish",))
        (payload,) = self.recv()
        return payload

    def close(self):
        self._conn.close()
        self._proc.join(timeout=30)
        if self._proc.is_alive():  # pragma: no cover - wedged worker
            self._proc.terminate()
            self._proc.join()


class ShardedRun:
    """Coordinate one cluster scenario across N lockstep shards."""

    def __init__(
        self,
        cluster: ClusterConfig,
        streams: Sequence[StreamSpec],
        duration: float,
        shards: Optional[int] = None,
        processes: Optional[bool] = None,
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
        if shards is None:
            from repro.experiments.common import session

            shards = session().shards
        self.cluster = cluster
        self.streams = list(streams)
        self.duration = float(duration)
        self.shards = min(max(1, shards), cluster.nodes)
        self.drain = drain
        if processes is None:
            # Workers of a ProcessPoolExecutor are daemonic and may not
            # spawn children; fall back to inline stepping there (the
            # results are identical by design — only wall-clock differs).
            processes = (
                self.shards > 1 and not multiprocessing.current_process().daemon
            )
        self.processes = bool(processes) and self.shards > 1
        self.epochs_run = 0

    # -- internals ----------------------------------------------------------

    def _spawn_shards(self, partitions):
        owners = []
        for shard_index, node_indices in enumerate(partitions):
            node_set = set(node_indices)
            specs = [s for s in self.streams if s.gateway in node_set]
            owners.append((shard_index, node_indices, specs))
        if self.processes:
            from repro.experiments.common import session

            current = session()
            return [
                _ProcessShard(self.cluster, i, nodes, specs, self.duration, current)
                for i, nodes, specs in owners
            ]
        return [
            _InlineShard(self.cluster, i, nodes, specs, self.duration)
            for i, nodes, specs in owners
        ]

    def run(self) -> Dict:
        """Execute the epoch loop; return the merged metrics dict."""
        partitions = partition_nodes(self.cluster.nodes, self.shards)
        node_to_shard = {
            node: shard for shard, nodes in enumerate(partitions) for node in nodes
        }
        from repro.experiments.common import session

        epoch = self.cluster.link_latency
        channel = InterShardChannel(epoch, sanitize=session().sanitize)
        vehicles = self._spawn_shards(partitions)
        try:
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
                per_shard: List[List] = [[] for _ in vehicles]
                for node, messages in due.items():
                    per_shard[node_to_shard[node]].extend(messages)
                if self.processes:
                    for vehicle, messages in zip(vehicles, per_shard):
                        vehicle.send_epoch(t_next, messages)
                    busy = False
                    for vehicle in vehicles:
                        outbox, shard_busy = vehicle.recv()
                        channel.push(outbox)
                        busy = busy or shard_busy
                else:
                    busy = False
                    for vehicle, messages in zip(vehicles, per_shard):
                        outbox, shard_busy = vehicle.epoch(t_next, messages)
                        channel.push(outbox)
                        busy = busy or shard_busy
                t = t_next
                self.epochs_run += 1
            payloads = [vehicle.finish() for vehicle in vehicles]
        finally:
            for vehicle in vehicles:
                vehicle.close()
        return self._merge(payloads)

    def _merge(self, payloads: List[Dict]) -> Dict:
        """Fold per-shard payloads into the canonical result dict."""
        from repro.experiments import common

        payloads = sorted(payloads, key=lambda p: p["shard"])
        stream_reports: List[Dict] = []
        nodes: Dict[int, Dict] = {}
        for payload in payloads:
            stream_reports.extend(payload["streams"])
            nodes.update(payload["nodes"])
            # Worker shards ship their fault summaries and spans home so
            # the runner's drains see them exactly as if built inline.
            common.add_forwarded_fault_summaries(payload.get("faults", []))
            common.add_forwarded_spans(payload.get("spans", []))
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
                "processes": self.processes,
                "epochs": self.epochs_run,
                "duration": self.duration,
                "drained": self.drain,
            },
        }


def run_cluster(
    cluster: ClusterConfig,
    streams: Sequence[StreamSpec],
    duration: float,
    shards: Optional[int] = None,
    processes: Optional[bool] = None,
    drain: bool = False,
) -> Dict:
    """One-call convenience wrapper around :class:`ShardedRun`."""
    return ShardedRun(
        cluster, streams, duration, shards=shards, processes=processes, drain=drain
    ).run()
