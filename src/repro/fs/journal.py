"""The journal (jbd2-like), ordered mode, and transaction entanglement.

One *running* transaction accumulates metadata updates from every
writer; at most one transaction *commits* at a time.  Committing, per
ext4 ordered mode (paper Figure 4), requires:

1. writing the *ordered data* — the dirty pages of every inode whose
   allocation joined the transaction (even if the fsync caller never
   touched those files);
2. writing the journal blocks (descriptor + metadata + commit record)
   sequentially into the journal area;
3. later, checkpointing the metadata in place.

Steps 1–2 are performed by a kernel commit task.  In the split
framework this task is a *proxy*: the journal writes carry the cause
set of every joiner.  A partially-integrated filesystem (our XFS model)
skips that tagging, so its metadata I/O is attributed to the journal
task itself — reproducing Figure 17.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.block.request import WRITE, BlockRequest
from repro.core.tags import CauseSet
from repro.faults.errors import EIO
from repro.obs.bus import JournalCommitRecord, JournalTxnCommit
from repro.sim.events import AllOf

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.base import FileSystem
    from repro.proc import Task
    from repro.sim.core import Environment


class CheckpointEntry(NamedTuple):
    """Metadata committed to the journal but not yet written in place."""

    time: float
    tid: int
    #: In ascending order, the order the checkpointer writes them.
    blocks: Tuple[int, ...]
    causes: CauseSet


class Transaction:
    """A batch of metadata updates plus its ordered-data obligations."""

    _tids = itertools.count(1)

    RUNNING = "running"
    COMMITTING = "committing"
    COMMITTED = "committed"
    ABORTED = "aborted"

    def __init__(self, env: "Environment"):
        self.tid = next(Transaction._tids)
        self.env = env
        self.state = Transaction.RUNNING
        #: Metadata blocks (inode table entries, bitmaps, directories)
        #: modified in this transaction.
        self.metadata_blocks: Set[int] = set()
        #: Tasks whose updates are batched here (set tag of the commit).
        self.joiners = CauseSet()
        #: Inodes whose data must reach disk before the commit record
        #: (ordered mode: their allocations are in this transaction).
        self.ordered_inodes: Set[int] = set()
        #: Triggered (with no value: waiters read :attr:`state`) when
        #: the commit record is durable or the commit aborted.
        self.done = env.event()
        self.commit_start: Optional[float] = None
        self.commit_end: Optional[float] = None

    @property
    def empty(self) -> bool:
        return not self.metadata_blocks and not self.ordered_inodes

    def __repr__(self) -> str:
        return (
            f"<Txn #{self.tid} {self.state} meta={len(self.metadata_blocks)} "
            f"ordered={len(self.ordered_inodes)}>"
        )


class Journal:
    """Transaction manager and commit engine for one filesystem."""

    def __init__(
        self,
        env: "Environment",
        fs: "FileSystem",
        area_start: int,
        area_blocks: int,
        commit_interval: float = 5.0,
        checkpoint_delay: float = 30.0,
    ):
        self.env = env
        self.fs = fs
        self.area_start = area_start
        self.area_blocks = area_blocks
        self.commit_interval = commit_interval
        self.checkpoint_delay = checkpoint_delay
        #: The jbd2 kernel task (a proxy when committing).
        self.task = fs.process_table.spawn(f"jbd2-{fs.name}", kernel=True)
        self.bus = fs.bus
        self._sub_txn_commit = self.bus.listeners(JournalTxnCommit)
        self._sub_commit_record = self.bus.listeners(JournalCommitRecord)
        self.running = Transaction(env)
        self.committing: Optional[Transaction] = None
        self._journal_head = area_start
        #: Metadata blocks committed but not yet checkpointed in place,
        #: with the cause set recorded at commit time.
        self._checkpoint_queue: List[CheckpointEntry] = []
        #: Set when a journal write failed permanently: the filesystem
        #: is effectively read-only and fsync raises EIO (ext4 behaviour
        #: short of remount-ro).
        self.aborted = False
        self.commits = 0
        self.journal_blocks_written = 0
        self.checkpoint_errors = 0
        env.process(self._commit_timer(), name=f"jbd2-timer-{fs.name}")
        env.process(self._checkpointer(), name=f"jbd2-checkpoint-{fs.name}")

    def _publish_commit(self, txn: Transaction, causes: CauseSet, nblocks: int, aborted: bool) -> None:
        if self._sub_txn_commit:
            self.bus.publish(
                JournalTxnCommit(
                    self.env.now,
                    txn.tid,
                    txn.commit_start if txn.commit_start is not None else self.env.now,
                    causes,
                    nblocks,
                    len(txn.ordered_inodes),
                    aborted,
                )
            )

    # -- joining the running transaction ------------------------------------

    def add_metadata(
        self,
        task: "Task",
        block: int,
        ordered_inode: Optional[int] = None,
        causes: Optional[CauseSet] = None,
    ) -> Transaction:
        """Record a metadata update by *task* (or its proxied causes;
        *causes* is *task*'s current cause set, if the caller already
        looked it up)."""
        txn = self.running
        txn.metadata_blocks.add(block)
        tags = self.fs.tags
        if causes is None:
            causes = tags.current_causes(task)
        if ordered_inode is not None:
            txn.ordered_inodes.add(ordered_inode)
        # Re-pricing an unchanged joiner set is a no-op: price the tag
        # on the first join and whenever the set grows (a joiner already
        # in the set, the common case, needs no union).
        joiners = txn.joiners
        if not causes.pids <= joiners.pids or not joiners.pids:
            txn.joiners = merged = joiners | causes
            tags.account_tag(txn, merged)
        return txn

    def transaction_of(self, inode_id: int, metadata_block: Optional[int]) -> Optional[Transaction]:
        """The transaction (running or committing) involving this inode."""
        for txn in (self.running, self.committing):
            if txn is None:
                continue
            if inode_id in txn.ordered_inodes:
                return txn
            if metadata_block is not None and metadata_block in txn.metadata_blocks:
                return txn
        return None

    # -- committing ----------------------------------------------------------

    def ensure_committed(self, txn: Transaction):
        """Generator: wait until *txn* is durable, committing if needed.

        Raises :class:`EIO` if the journal aborted (a journal or
        ordered-data write failed permanently): the transaction can
        never become durable.
        """
        while txn.state != Transaction.COMMITTED:
            if self.aborted or txn.state == Transaction.ABORTED:
                raise EIO(f"journal of {self.fs.name} aborted; txn #{txn.tid} lost")
            if txn.state == Transaction.RUNNING:
                yield from self.commit_running()
            else:
                yield txn.done

    def commit_running(self):
        """Generator: commit the current running transaction.

        On a permanent write failure the journal *aborts*: the
        transaction is marked :attr:`~Transaction.ABORTED`, its waiters
        are released (they observe the state and raise EIO in their own
        context), and no further commits are attempted.
        """
        if self.aborted:
            return
        # Only one commit at a time: wait for any in-flight commit first.
        while self.committing is not None:
            committing = self.committing
            target_running = self.running
            yield committing.done
            # If our running txn got committed by someone else meanwhile,
            # we are done.
            if target_running.state == Transaction.COMMITTED:
                return

        txn = self.running
        if txn.empty:
            return
        txn.state = Transaction.COMMITTING
        txn.commit_start = self.env.now
        self.committing = txn
        self.running = Transaction(self.env)

        try:
            # Step 1: ordered data — flush dirty pages of every inode
            # whose allocation joined this transaction.  The commit task
            # acts as a proxy for the original writers.
            data_events = []
            for inode_id in sorted(txn.ordered_inodes):
                inode = self.fs.inode_by_id(inode_id)
                if inode is None:
                    continue
                pages = self.fs.cache.dirty_pages_of(inode_id)
                if pages:
                    data_events.extend(self.fs.writepages(self.task, inode, pages, sync=True))
            if data_events:
                yield AllOf(self.env, data_events)
                if any(event.value.failed for event in data_events):
                    # Ordered data never became durable: committing now
                    # would let recovered metadata reference lost data.
                    self._abort(txn)
                    return

            # Step 2: journal blocks, written sequentially.
            nblocks = self.commit_size(txn)
            causes = self.journal_write_causes(txn)
            block = self._advance_journal_head(nblocks)
            request = BlockRequest(
                WRITE,
                block=block,
                nblocks=nblocks,
                submitter=self.task,
                causes=causes,
                sync=True,
                metadata=True,
            )
            done = self.fs.block_queue.submit(request)
            yield done
            if request.failed:
                self._abort(txn)
                return
            self.journal_blocks_written += nblocks

            txn.state = Transaction.COMMITTED
            txn.commit_end = self.env.now
            self.commits += 1
            self.fs.tags.release_tag(txn)
            if self._sub_commit_record:
                self.bus.publish(self._commit_record(txn))
            self._checkpoint_queue.append(
                CheckpointEntry(self.env.now, txn.tid, tuple(sorted(txn.metadata_blocks)), causes)
            )
            self._publish_commit(txn, causes, nblocks, aborted=False)
            txn.done.succeed()
        finally:
            self.committing = None

    def _commit_record(self, txn: Transaction) -> JournalCommitRecord:
        """Snapshot what recovery would reconstruct for this commit."""
        data_blocks: Set[int] = set()
        for inode_id in txn.ordered_inodes:
            inode = self.fs.inode_by_id(inode_id)
            if inode is not None:
                data_blocks.update(inode.block_map.values())
        return JournalCommitRecord(
            self.env.now, txn.tid, frozenset(txn.metadata_blocks), frozenset(data_blocks)
        )

    def _abort(self, txn: Transaction) -> None:
        """A commit write failed permanently: the journal shuts down."""
        self.aborted = True
        txn.state = Transaction.ABORTED
        txn.commit_end = self.env.now
        self.fs.tags.release_tag(txn)
        self._publish_commit(txn, txn.joiners, 0, aborted=True)
        # Release waiters; they observe ABORTED and raise EIO themselves
        # (failing the event would kill kernel daemons waiting on it).
        txn.done.succeed()

    def commit_size(self, txn: Transaction) -> int:
        """Journal blocks for one commit.

        Physical journaling (ext4/jbd2): a descriptor, one block per
        modified metadata buffer, and a commit record.
        """
        return len(txn.metadata_blocks) + 2

    def journal_write_causes(self, txn: Transaction) -> CauseSet:
        """Cause tag for the journal write — overridden per integration.

        Full split integration attributes journal I/O to the joiners;
        a partially-integrated filesystem cannot, and charges the
        journal task itself.
        """
        if self.fs.full_integration:
            return txn.joiners
        return CauseSet((self.task.pid,))

    def _advance_journal_head(self, nblocks: int) -> int:
        if self._journal_head + nblocks > self.area_start + self.area_blocks:
            self._journal_head = self.area_start  # wrap (space reuse)
        block = self._journal_head
        self._journal_head += nblocks
        return block

    # -- background tasks ------------------------------------------------------

    def _commit_timer(self):
        """Periodic commit, like ext4's 5-second default."""
        while True:
            yield self.env.timeout(self.commit_interval)
            if not self.running.empty:
                yield from self.commit_running()

    def _checkpointer(self):
        """Write committed metadata in place once it has aged.

        A failed checkpoint write is harmless for durability (the
        journal copy is authoritative until the in-place write lands),
        so failed blocks are simply re-queued for the next pass.
        """
        while True:
            yield self.env.timeout(self.checkpoint_delay)
            now = self.env.now
            due = [
                entry for entry in self._checkpoint_queue if now - entry.time >= self.checkpoint_delay
            ]
            self._checkpoint_queue = [
                entry for entry in self._checkpoint_queue if now - entry.time < self.checkpoint_delay
            ]
            pending = []  # (entry, block, done-event)
            for entry in due:
                for block in entry.blocks:
                    request = BlockRequest(
                        WRITE,
                        block=block,
                        nblocks=1,
                        submitter=self.task,
                        causes=entry.causes,
                        metadata=True,
                    )
                    pending.append((entry, block, self.fs.block_queue.submit(request)))
            if pending:
                yield AllOf(self.env, [event for _, _, event in pending])
                requeue: Dict[int, Tuple[CauseSet, List[int]]] = {}
                for entry, block, event in pending:
                    if not event.value.failed:
                        continue
                    self.checkpoint_errors += 1
                    requeue.setdefault(entry.tid, (entry.causes, []))[1].append(block)
                self._checkpoint_queue.extend(
                    CheckpointEntry(self.env.now, tid, tuple(blocks), causes)
                    for tid, (causes, blocks) in requeue.items()
                )


class LogicalJournal(Journal):
    """XFS-style logical journaling.

    Instead of writing whole metadata buffers, logical records describe
    the *changes*; many records pack into one log block, so commits are
    much smaller than jbd2's physical commits for metadata-heavy loads.
    """

    #: How many logical change records fit in one 4 KiB log block.
    records_per_block = 16

    def commit_size(self, txn: Transaction) -> int:
        records = max(1, len(txn.metadata_blocks))
        record_blocks = (records + self.records_per_block - 1) // self.records_per_block
        return record_blocks + 1  # + the commit/unmount record
