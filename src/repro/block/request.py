"""Block-level request representation (Linux ``struct request``/``bio``)."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, List, Optional

from repro.core.tags import CauseSet, EMPTY_CAUSES
from repro.proc import Task
from repro.units import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event

READ = "read"
WRITE = "write"


class BlockRequest:
    """One I/O request at the block level.

    Two identity fields matter for the paper's argument:

    - ``submitter`` — the task that *submitted* the request.  For
      delegated writes this is the writeback daemon or the journal
      commit task.  Block-level schedulers like CFQ can only see this.
    - ``causes`` — the true cause set carried by split tags.  Only
      split-framework schedulers consult it.
    """

    __slots__ = (
        "id",
        "op",
        "block",
        "nblocks",
        "submitter",
        "causes",
        "sync",
        "metadata",
        "runs",
        "submit_time",
        "dispatch_time",
        "complete_time",
        "done",
        "deadline",
        "attempts",
        "failed",
        "error",
        "slot",
        "hedged",
    )

    _ids = itertools.count(1)

    def __init__(
        self,
        op: str,
        block: int,
        nblocks: int,
        submitter: Task,
        causes: CauseSet = EMPTY_CAUSES,
        sync: bool = False,
        metadata: bool = False,
        runs: Optional[List[Any]] = None,
    ):
        if op not in (READ, WRITE):
            raise ValueError(f"op must be 'read' or 'write', got {op!r}")
        if nblocks <= 0:
            raise ValueError(f"nblocks must be positive, got {nblocks}")
        self.id = next(BlockRequest._ids)
        self.op = op
        self.block = block
        self.nblocks = nblocks
        self.submitter = submitter
        self.causes = causes if causes else CauseSet((submitter.pid,))
        #: Synchronous request (a reader or fsync is waiting on it).
        self.sync = sync
        #: Journal / metadata write.
        self.metadata = metadata
        #: Dirty runs this write flushes, in block order (cleaned on
        #: completion; a run split while in flight adds its piece here).
        self.runs = runs if runs is not None else []
        self.submit_time: Optional[float] = None
        self.dispatch_time: Optional[float] = None
        self.complete_time: Optional[float] = None
        #: Triggered when the device finishes the request.  The event
        #: *succeeds* with the request even on failure — waiters must
        #: check :attr:`failed` — so kernel daemons are never killed by
        #: an I/O error they should merely count.  Set by
        #: :meth:`BlockQueue.submit` (which returns it) and None again
        #: once the request completes.
        self.done: Optional["Event"] = None
        #: Per-request deadline (absolute time), used by deadline schedulers.
        self.deadline: Optional[float] = None
        #: Device attempts made (1 on a clean first service).
        self.attempts = 0
        #: Dispatch slot (hardware-queue tag) that served the request;
        #: None until dispatched.  Always 0 at queue_depth=1.
        self.slot: Optional[int] = None
        #: A hedge clone was issued for this request (its primary
        #: attempt overran the adaptive deadline).
        self.hedged = False
        #: Permanently failed: the block layer exhausted its retries.
        self.failed = False
        #: The final device error when :attr:`failed` (None otherwise).
        self.error: Optional[BaseException] = None

    @property
    def nbytes(self) -> int:
        return self.nblocks * PAGE_SIZE

    @property
    def end_block(self) -> int:
        return self.block + self.nblocks

    @property
    def is_read(self) -> bool:
        return self.op == READ

    @property
    def is_write(self) -> bool:
        return self.op == WRITE

    @property
    def status(self) -> str:
        """``"ok"`` or ``"failed"`` (meaningful once completed)."""
        return "failed" if self.failed else "ok"

    @property
    def latency(self) -> Optional[float]:
        if self.complete_time is None or self.submit_time is None:
            return None
        return self.complete_time - self.submit_time

    def __repr__(self) -> str:
        return (
            f"<BlockRequest #{self.id} {self.op} [{self.block},{self.end_block}) "
            f"by {self.submitter.name}>"
        )
