"""Power-loss crash modelling and journal recovery.

The crash story mirrors a real ordered-mode journal (jbd2):

1. power is cut (:func:`crash`): the environment halts, the page cache
   — volatile DRAM — vanishes, and any in-flight block request is torn;
2. recovery (:func:`recover`) scans the journal as a fresh mount would:
   transactions whose commit record reached the device are *replayed*
   (their metadata is reinstated in place), the running transaction and
   any mid-commit transaction are discarded;
3. the ordered-mode invariant is checked: no recovered metadata may
   reference a data block that never reached the device.  Ordered mode
   guarantees this by writing ordered data before the commit record —
   the checker exists to prove the simulated protocol (and any elevator
   reordering the journal stream) actually preserves it.

Durability is ground truth recorded at the block layer: a
:class:`DurabilityLog` subscribes to a queue's ``BlockComplete`` events
and remembers every block a *successful* write covered.  It also keeps
the journal's ``JournalCommitRecord`` snapshots, which the journal
builds only while something subscribes: recovery checks the commits a
log saw, and no others.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.obs.bus import BlockComplete, JournalCommitRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.block.queue import BlockQueue
    from repro.block.request import BlockRequest
    from repro.fs.base import FileSystem


class DurabilityLog:
    """Records which blocks were durably written on one block queue.

    Attach before the workload starts; this is required.  The log
    subscribes to the stack bus's :class:`BlockComplete` events and
    keeps the set of blocks covered by successful writes, and to
    :class:`JournalCommitRecord` and keeps every durable commit, in tid
    order.  A log attached later misses the earlier commits and writes,
    so recovery skips those commits and flags a later commit referencing
    their blocks.  Intended for crash/recovery experiments over bounded
    workloads (blocks and records are kept exactly).
    """

    def __init__(self, queue: "BlockQueue"):
        self.queue = queue
        self.written: Set[int] = set()
        self.writes = 0
        self.failed_writes = 0
        self.commit_records: List[JournalCommitRecord] = []
        queue.bus.subscribe(BlockComplete, lambda event: self._on_complete(event.request))
        queue.bus.subscribe(JournalCommitRecord, self.commit_records.append)

    def _on_complete(self, request: "BlockRequest") -> None:
        if not request.is_write:
            return
        if request.failed:
            self.failed_writes += 1
            return
        self.writes += 1
        self.written.update(range(request.block, request.end_block))

    def contains(self, block: int) -> bool:
        """Was *block* ever durably written?"""
        return block in self.written

    def __len__(self) -> int:
        return len(self.written)


class RecoveryReport:
    """What a post-crash recovery pass found and did."""

    def __init__(self):
        #: tids whose commit record was durable and metadata was replayed.
        self.replayed_tids: List[int] = []
        #: Metadata blocks reinstated in place by replay.
        self.replayed_metadata_blocks: Set[int] = set()
        #: The running transaction discarded at recovery (None if empty).
        self.discarded_running_tid: Optional[int] = None
        #: A mid-commit transaction whose commit record never landed.
        self.discarded_committing_tid: Optional[int] = None
        #: Ordered-mode violations: (tid, data blocks referenced but never written).
        self.violations: List[Tuple[int, List[int]]] = []
        #: Volatile pages lost in the crash.
        self.dropped_pages = 0
        #: The request torn mid-flight by the power cut (id, or None).
        self.torn_request_id: Optional[int] = None

    @property
    def invariant_ok(self) -> bool:
        """Ordered-mode invariant: all recovered metadata references durable data."""
        return not self.violations

    def summary(self) -> Dict[str, object]:
        """JSON-friendly digest of the recovery pass."""
        return {
            "replayed_transactions": len(self.replayed_tids),
            "replayed_metadata_blocks": len(self.replayed_metadata_blocks),
            "discarded_running_tid": self.discarded_running_tid,
            "discarded_committing_tid": self.discarded_committing_tid,
            "dropped_pages": self.dropped_pages,
            "torn_request_id": self.torn_request_id,
            "invariant_ok": self.invariant_ok,
            "violations": [
                {"tid": tid, "missing_blocks": blocks} for tid, blocks in self.violations
            ],
        }

    def __repr__(self) -> str:
        status = "ok" if self.invariant_ok else f"{len(self.violations)} violations"
        return (
            f"<RecoveryReport replayed={len(self.replayed_tids)} "
            f"discarded_running={self.discarded_running_tid} {status}>"
        )


def crash(machine) -> Dict[str, Optional[int]]:
    """Cut power to *machine* right now.

    Halts the environment (subsequent ``run`` calls return immediately)
    and drops all volatile state: the page cache's contents disappear
    without firing any hooks, and the in-flight block request is torn.
    Returns ``{"dropped_pages": ..., "torn_request_id": ...}``.
    """
    env = machine.env
    if not env.halted:
        env.halt(reason=env.now)
    dropped = machine.cache.drop_volatile()
    outstanding = machine.block_queue.outstanding
    return {
        "dropped_pages": dropped,
        "torn_request_id": outstanding[0].id if outstanding else None,
    }


def recover(fs: "FileSystem", durability: DurabilityLog) -> RecoveryReport:
    """Run a mount-time recovery pass over *fs*'s journal.

    Committed transactions whose metadata is not yet checkpointed in
    place are replayed; the running transaction and any transaction
    caught mid-commit (commit record not durable) are discarded.  Every
    durable commit *durability* recorded is then checked against the
    ordered-mode invariant using its block-level ground truth.
    """
    from repro.fs.journal import Transaction

    journal = fs.journal
    report = RecoveryReport()

    # Discard volatile transaction state, as a fresh mount would.
    if not journal.running.empty:
        report.discarded_running_tid = journal.running.tid
    if journal.committing is not None and journal.committing.state != Transaction.COMMITTED:
        report.discarded_committing_tid = journal.committing.tid
    journal.running = Transaction(journal.env)
    journal.committing = None

    # Replay: commits whose metadata never reached its home location.
    for entry in journal._checkpoint_queue:
        report.replayed_tids.append(entry.tid)
        report.replayed_metadata_blocks.update(entry.blocks)
    journal._checkpoint_queue = []

    # Ordered-mode invariant over every durable commit.
    for record in durability.commit_records:
        missing = sorted(b for b in record.data_blocks if b not in durability.written)
        if missing:
            report.violations.append((record.tid, missing))
    return report


def crash_and_recover(machine, durability: DurabilityLog) -> RecoveryReport:
    """Convenience wrapper: :func:`crash` then :func:`recover`."""
    crashed = crash(machine)
    report = recover(machine.fs, durability)
    report.dropped_pages = crashed["dropped_pages"]
    report.torn_request_id = crashed["torn_request_id"]
    return report
