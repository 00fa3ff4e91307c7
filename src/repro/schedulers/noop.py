"""No-op schedulers: FIFO dispatch, no policy.

Used directly as a baseline and as the framework-overhead yardstick of
Figure 9 (block no-op vs split no-op).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.block.elevator import BlockScheduler
from repro.block.request import BlockRequest
from repro.core.hooks import SplitScheduler


class Noop(BlockScheduler):
    """Block-level FIFO."""

    name = "noop"
    framework = "block"

    def __init__(self):
        super().__init__()
        self._fifo: deque = deque()

    def add_request(self, request: BlockRequest) -> None:
        self._fifo.append(request)

    def next_request(self) -> Optional[BlockRequest]:
        return self._fifo.popleft() if self._fifo else None

    def has_work(self) -> bool:
        return bool(self._fifo)


class SplitNoop(SplitScheduler):
    """Split-framework no-op: overrides every hook, does nothing.

    Its purpose is to measure the framework's intrinsic overhead: the
    hook invocations (direct calls at the syscall, memory and block
    levels) and tag bookkeeping happen, but no policy runs.
    """

    name = "split-noop"
    framework = "split"

    def __init__(self):
        super().__init__()
        self._fifo: deque = deque()
        self.hook_invocations = 0

    # Syscall hooks: observe and pass through.
    def syscall_entry(self, task, call, info):
        self.hook_invocations += 1
        return None

    def syscall_return(self, task, call, info) -> None:
        self.hook_invocations += 1

    # Memory hooks: observe and pass through.
    def on_buffers_dirty(self, inode_id, first, stop, causes, old_causes) -> None:
        self.hook_invocations += stop - first  # one per page dirtied

    def on_buffer_free(self, inode_id, first, stop) -> None:
        self.hook_invocations += stop - first  # one per page freed

    # Block hooks: FIFO.
    def add_request(self, request: BlockRequest) -> None:
        self.hook_invocations += 1
        self._fifo.append(request)

    def next_request(self) -> Optional[BlockRequest]:
        return self._fifo.popleft() if self._fifo else None

    def request_completed(self, request: BlockRequest) -> None:
        self.hook_invocations += 1

    def has_work(self) -> bool:
        return bool(self._fifo)
