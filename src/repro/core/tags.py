"""Cross-layer cause tagging (paper §3.1, §4.1).

The split framework tags I/O with *sets* of causes rather than scalar
tags: metadata is shared and I/O is batched, so one dirty page or block
request can have many responsible tasks.

Write delegation is handled through *proxies*: when the writeback daemon
or the journal commit task does work on behalf of other tasks, it enters
a proxy context naming those tasks; anything it dirties or submits while
in that context is attributed to the tasks being served, not to the
proxy itself (Figure 7 in the paper).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional

from repro.proc import Task


class CauseSet:
    """An immutable set of pids responsible for an I/O operation."""

    __slots__ = ("pids",)

    def __init__(self, pids: Iterable[int] = ()):
        self.pids: FrozenSet[int] = frozenset(pids)

    @classmethod
    def of(cls, *tasks: Task) -> "CauseSet":
        """Build a cause set from task objects."""
        return cls(task.pid for task in tasks)

    def union(self, other: "CauseSet") -> "CauseSet":
        """The union; an operand that already holds it is returned as is."""
        mine, theirs = self.pids, other.pids
        if theirs <= mine:
            return self
        if mine <= theirs:
            return other
        return CauseSet(mine | theirs)

    __or__ = union

    def __contains__(self, item) -> bool:
        pid = item.pid if isinstance(item, Task) else item
        return pid in self.pids

    def __len__(self) -> int:
        return len(self.pids)

    def __iter__(self):
        return iter(self.pids)

    def __bool__(self) -> bool:
        return bool(self.pids)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CauseSet):
            return self.pids == other.pids
        if isinstance(other, frozenset):
            return self.pids == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pids)

    def __repr__(self) -> str:
        return f"CauseSet({sorted(self.pids)})"


EMPTY_CAUSES = CauseSet()


class TagManager:
    """Tracks per-task proxy state and answers "who caused this?".

    ``current_causes(task)`` is the single entry point used by the cache
    and block layers when tagging new work: it returns the proxied cause
    set while the task is acting as a proxy, and ``{task.pid}``
    otherwise.

    The manager also measures its own memory footprint (Figure 10): each
    live tag costs roughly ``TAG_OVERHEAD_BASE + TAG_OVERHEAD_PER_PID *
    len(causes)`` bytes, mirroring the kmalloc instrumentation in the
    paper.
    """

    #: Approximate bytes of kernel memory per causes structure and per
    #: pid entry (matches the order of magnitude instrumented in §4.3).
    TAG_OVERHEAD_BASE = 48
    TAG_OVERHEAD_PER_PID = 8

    def __init__(self):
        self._proxies: Dict[int, CauseSet] = {}
        #: Singleton CauseSets for unproxied tasks (hot path).
        self._self_causes: Dict[int, CauseSet] = {}
        #: Live tag allocations, keyed by the tagged object's id (journal
        #: transactions; dirty pages are counted in ``_page_tags``).
        self._allocations: Dict[int, int] = {}
        self._page_tags = 0
        self.bytes_allocated = 0
        self.max_bytes_allocated = 0

    # -- proxy contexts -------------------------------------------------

    def set_proxy(self, task: Task, causes: CauseSet) -> None:
        """Mark *task* as doing work on behalf of *causes*."""
        if not isinstance(causes, CauseSet):
            raise TypeError(f"causes must be a CauseSet, got {causes!r}")
        self._proxies[task.pid] = causes

    def clear_proxy(self, task: Task) -> None:
        """Clear *task*'s proxy state (done submitting delegated work)."""
        self._proxies.pop(task.pid, None)

    def is_proxy(self, task: Task) -> bool:
        return task.pid in self._proxies

    def current_causes(self, task: Task) -> CauseSet:
        """The causes to tag new work performed by *task* with."""
        proxied = self._proxies.get(task.pid)
        if proxied:
            return proxied
        causes = self._self_causes.get(task.pid)
        if causes is None:
            causes = CauseSet((task.pid,))
            self._self_causes[task.pid] = causes
        return causes

    # -- tag memory accounting (Figure 10) -------------------------------

    def account_tag(self, obj: object, causes: CauseSet) -> None:
        """Record the allocation of a causes tag attached to *obj*."""
        cost = self.tag_cost(causes)
        previous = self._allocations.pop(id(obj), 0)
        self.bytes_allocated += cost - previous
        self._allocations[id(obj)] = cost
        if self.bytes_allocated > self.max_bytes_allocated:
            self.max_bytes_allocated = self.bytes_allocated

    def tag_cost(self, causes: CauseSet) -> int:
        """Bytes one tag of *causes* costs."""
        return self.TAG_OVERHEAD_BASE + self.TAG_OVERHEAD_PER_PID * len(causes)

    def account_tags(self, count: int, causes: CauseSet, old: Optional[CauseSet] = None) -> None:
        """Record *count* page tags of *causes*: new tags, or, with
        *old*, tags of *old* re-priced.  A run of dirty pages holds one
        tag per page but no entry per page; this equals one
        :meth:`account_tag` call per page in order, since costs are
        integers and a page's re-price never lowers its cost (the new
        set holds the old), so the running total only rises and its
        last value is the peak."""
        cost = count * self.tag_cost(causes)
        if old is None:
            self._page_tags += count
        else:
            cost -= count * self.tag_cost(old)
        total = self.bytes_allocated + cost
        self.bytes_allocated = total
        if total > self.max_bytes_allocated:
            self.max_bytes_allocated = total

    def release_tag(self, obj: object) -> None:
        """Record that *obj*'s tag was freed."""
        cost = self._allocations.pop(id(obj), 0)
        self.bytes_allocated -= cost

    def release_tags(self, count: int, causes: CauseSet) -> None:
        """Record that *count* page tags of *causes* were freed (the
        total only falls, so the peak cannot move)."""
        self._page_tags -= count
        self.bytes_allocated -= count * self.tag_cost(causes)

    @property
    def live_tags(self) -> int:
        return len(self._allocations) + self._page_tags
