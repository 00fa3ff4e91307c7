"""An HDFS-like distributed filesystem over local split schedulers
(paper §7.3).

Architecture: one NameNode placing fixed-size blocks on a set of
DataNodes; every DataNode is a complete simulated machine (its own
disk, cache, filesystem, and — when isolation is wanted — a local
Split-Token scheduler).  Writes are pipelined to ``replication``
replicas.

Account propagation mirrors the paper's protocol change: each client
RPC carries a billing account; a DataNode charges the account's local
task, which the local Split-Token scheduler throttles.  Because blocks
are placed per-block, load imbalance leaves tokens unused on idle
workers — the gap between the black bars and the dashed upper bound in
Figure 21, which shrinks with smaller block sizes.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.devices.hdd import HDD
from repro.metrics.recorders import ThroughputTracker
from repro.sim.events import AllOf
from repro.units import GB, MB

DEFAULT_BLOCK_SIZE = 64 * MB


class DataNode:
    """One worker machine: a full local stack plus per-account tasks."""

    def __init__(self, env, index: int, scheduler_factory, memory_bytes: int = 8 * GB):
        from repro.syscall.os import OS

        self.index = index
        self.scheduler = scheduler_factory() if scheduler_factory is not None else None
        self.os = OS(
            env,
            device=HDD(),
            scheduler=self.scheduler,
            memory_bytes=memory_bytes,
            cores=4,
        )
        #: Billing account -> local task (throttled by the local scheduler).
        self._account_tasks: Dict[str, object] = {}
        self.bytes_written = 0

    def account_task(self, account: str):
        task = self._account_tasks.get(account)
        if task is None:
            task = self.os.spawn(f"dn{self.index}-{account}")
            self._account_tasks[account] = task
        return task

    def set_account_limit(self, account: str, rate: float) -> None:
        """Throttle *account* locally (requires a token scheduler)."""
        if self.scheduler is None or not hasattr(self.scheduler, "set_limit"):
            raise RuntimeError("this DataNode's scheduler cannot throttle")
        self.scheduler.set_limit(self.account_task(account), rate)

    def write_chunk(self, account: str, path: str, nbytes: int):
        """Generator: append *nbytes* to the local replica file."""
        task = self.account_task(account)
        handle = yield from self.os.open(task, path, create=True)
        n = yield from handle.append(nbytes)
        yield from self.os.close(handle)
        self.bytes_written += n
        return n

    def sync_replica(self, account: str, path: str):
        """Generator: make a finished replica durable (block close)."""
        task = self.account_task(account)
        if self.os.fs.lookup(path) is None:
            return
        handle = yield from self.os.open(task, path)
        yield from handle.fsync()
        yield from self.os.close(handle)


class HDFSCluster:
    """NameNode + DataNodes + client API."""

    def __init__(
        self,
        env,
        workers: int = 7,
        replication: int = 3,
        block_size: int = DEFAULT_BLOCK_SIZE,
        scheduler_factory=None,
        seed: int = 0,
    ):
        if replication > workers:
            raise ValueError("replication cannot exceed worker count")
        self.env = env
        self.replication = replication
        self.block_size = block_size
        self.rng = random.Random(seed)
        self.datanodes = [DataNode(env, i, scheduler_factory) for i in range(workers)]
        self._block_counter = 0

    # -- NameNode -----------------------------------------------------------

    def place_block(self) -> List[DataNode]:
        """Choose *replication* workers for a new block.

        Random placement (like HDFS's default when no topology hints
        apply) — the source of the load imbalance the paper observes.
        """
        self._block_counter += 1
        return self.rng.sample(self.datanodes, self.replication)

    def set_account_limit(self, account: str, rate_per_node: float) -> None:
        """Throttle *account* on every worker (local rate cap)."""
        for node in self.datanodes:
            node.set_account_limit(account, rate_per_node)

    # -- client API -----------------------------------------------------------

    def write_file(
        self,
        account: str,
        path: str,
        size: int,
        duration: Optional[float] = None,
        tracker: Optional[ThroughputTracker] = None,
        chunk: int = 1 * MB,
    ):
        """Generator: write an HDFS file of *size* bytes, pipelined.

        Data flows block by block; within a block, 1 MB chunks go to
        all replicas in parallel (the pipeline's throughput is the
        slowest replica's).  Stops early when *duration* elapses.
        """
        env = self.env
        end = env.now + duration if duration is not None else None
        if tracker is not None:
            tracker.start(env.now)
        written = 0
        block_index = 0
        while written < size:
            if end is not None and env.now >= end:
                break
            replicas = self.place_block()
            block_remaining = min(self.block_size, size - written)
            flat = path.strip("/").replace("/", "_")
            replica_path = f"/{account}-{flat}.blk{block_index}"
            while block_remaining > 0:
                if end is not None and env.now >= end:
                    break
                n = min(chunk, block_remaining)
                transfers = [
                    env.process(node.write_chunk(account, replica_path, n))
                    for node in replicas
                ]
                yield AllOf(env, transfers)
                block_remaining -= n
                written += n
                if tracker is not None:
                    # Count client-visible bytes (not the 3x replica I/O).
                    tracker.add(n, env.now)
            # Block close: replicas are synced to disk (HDFS semantics),
            # which keeps the pipeline disk-bound rather than absorbing
            # whole blocks into worker page caches.
            closes = [
                env.process(node.sync_replica(account, replica_path))
                for node in replicas
            ]
            yield AllOf(env, closes)
            block_index += 1
        return written

    def read_file(
        self,
        account: str,
        path: str,
        tracker: Optional[ThroughputTracker] = None,
        chunk: int = 1 * MB,
    ):
        """Generator: read an HDFS file back, one replica per block.

        For each stored block, a random live replica serves the reads
        (HDFS picks the nearest; we model uniform choice).  Returns the
        number of bytes read, 0 if the file was never written.
        """
        env = self.env
        if tracker is not None:
            tracker.start(env.now)
        total = 0
        block_index = 0
        flat = path.strip("/").replace("/", "_")
        while True:
            replica_path = f"/{account}-{flat}.blk{block_index}"
            holders = [
                node for node in self.datanodes
                if node.os.fs.lookup(replica_path) is not None
            ]
            if not holders:
                break
            node = self.rng.choice(holders)
            task = node.account_task(account)
            handle = yield from node.os.open(task, replica_path)
            offset = 0
            while offset < handle.size:
                n = yield from handle.pread(offset, chunk)
                if n <= 0:
                    break
                offset += n
                total += n
                if tracker is not None:
                    tracker.add(n, env.now)
            yield from node.os.close(handle)
            block_index += 1
        return total
