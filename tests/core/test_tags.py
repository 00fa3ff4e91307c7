"""Tests for cause sets and proxy tracking (paper §3.1/§4.1)."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.cache import PageCache
from repro.core.tags import CauseSet, TagManager
from repro.proc import Task
from repro.sim import Environment
from repro.units import MB


def test_cause_set_of_tasks():
    a, b = Task("a"), Task("b")
    causes = CauseSet.of(a, b)
    assert a in causes
    assert b in causes
    assert len(causes) == 2


def test_cause_set_union():
    one = CauseSet([1, 2])
    two = CauseSet([2, 3])
    assert (one | two) == CauseSet([1, 2, 3])


def test_cause_set_is_immutable_value():
    causes = CauseSet([1])
    union = causes | CauseSet([2])
    assert causes == CauseSet([1])  # original untouched
    assert union != causes


def test_cause_set_hashable():
    assert hash(CauseSet([1, 2])) == hash(CauseSet([2, 1]))
    assert {CauseSet([1]): "x"}[CauseSet([1])] == "x"


def test_empty_cause_set_is_falsy():
    assert not CauseSet()
    assert CauseSet([1])


@given(st.sets(st.integers(min_value=1, max_value=1000)), st.sets(st.integers(min_value=1, max_value=1000)))
def test_union_is_commutative_and_idempotent(a, b):
    x, y = CauseSet(a), CauseSet(b)
    assert (x | y) == (y | x)
    assert (x | x) == x


pids = st.frozensets(st.integers(min_value=1, max_value=1000))


@given(pids, pids)
def test_union_holds_exactly_both_operands(a, b):
    assert (CauseSet(a) | CauseSet(b)).pids == a | b


@given(pids, pids)
@example(frozenset(range(1, 257)), frozenset({7}))
@example(frozenset({7}), frozenset(range(1, 257)))
def test_union_returns_an_operand_that_already_holds_it(a, b):
    x, y = CauseSet(a), CauseSet(b)
    if b <= a:
        assert x | y is x
    elif a <= b:
        assert x | y is y
    else:
        assert x | y is not x and x | y is not y


def test_current_causes_defaults_to_self():
    tags = TagManager()
    task = Task("app")
    assert tags.current_causes(task) == CauseSet([task.pid])


def test_proxy_redirects_causes():
    """Figure 7: pages dirtied by a proxy map to the tasks it serves."""
    tags = TagManager()
    p1, p2, p3 = Task("p1"), Task("p2"), Task("p3-writeback", kernel=True)
    served = CauseSet.of(p1, p2)
    tags.set_proxy(p3, served)
    assert tags.is_proxy(p3)
    assert tags.current_causes(p3) == served
    tags.clear_proxy(p3)
    assert not tags.is_proxy(p3)
    assert tags.current_causes(p3) == CauseSet([p3.pid])


def test_set_proxy_requires_cause_set():
    tags = TagManager()
    with pytest.raises(TypeError):
        tags.set_proxy(Task("t"), {1, 2})


def test_tag_accounting_tracks_bytes():
    tags = TagManager()
    page = object()
    tags.account_tag(page, CauseSet([1, 2]))
    expected = TagManager.TAG_OVERHEAD_BASE + 2 * TagManager.TAG_OVERHEAD_PER_PID
    assert tags.bytes_allocated == expected
    assert tags.live_tags == 1
    tags.release_tag(page)
    assert tags.bytes_allocated == 0
    assert tags.live_tags == 0


def test_tag_accounting_replaces_not_accumulates():
    tags = TagManager()
    page = object()
    tags.account_tag(page, CauseSet([1]))
    tags.account_tag(page, CauseSet([1, 2, 3]))
    expected = TagManager.TAG_OVERHEAD_BASE + 3 * TagManager.TAG_OVERHEAD_PER_PID
    assert tags.bytes_allocated == expected
    assert tags.live_tags == 1


def test_tag_accounting_peak_watermark():
    tags = TagManager()
    pages = [object() for _ in range(5)]
    for page in pages:
        tags.account_tag(page, CauseSet([1]))
    peak = tags.bytes_allocated
    for page in pages:
        tags.release_tag(page)
    assert tags.max_bytes_allocated == peak
    assert tags.bytes_allocated == 0


def test_release_unknown_tag_is_noop():
    tags = TagManager()
    tags.release_tag(object())
    assert tags.bytes_allocated == 0


def test_tag_accounting_with_many_writers_on_shared_dirty_pages():
    """256 tasks overwrite the same 16 dirty pages (the fig15 write-mem
    case): each page's tag is priced by the formula for its full cause
    set, however many times its set stayed the same."""
    tags = TagManager()
    cache = PageCache(Environment(), tags, memory_bytes=64 * MB)
    writers = [Task(f"w{i}") for i in range(256)]
    for _ in range(2):  # the second pass adds no pid
        for task in writers:
            cache.mark_dirty_range(1, 0, 16, None, task)
    per_page = TagManager.TAG_OVERHEAD_BASE + TagManager.TAG_OVERHEAD_PER_PID * len(writers)
    assert tags.live_tags == 16
    assert tags.bytes_allocated == 16 * per_page
    assert tags.max_bytes_allocated == 16 * per_page
    assert cache.overwrites == 16 * (2 * len(writers) - 1)


class _TagReference:
    """Tag accounting one object at a time, from the cost formula."""

    def __init__(self):
        self.costs = {}
        self.bytes_allocated = self.max_bytes_allocated = 0

    def account(self, obj, npids):
        cost = TagManager.TAG_OVERHEAD_BASE + TagManager.TAG_OVERHEAD_PER_PID * npids
        self.bytes_allocated += cost - self.costs.pop(id(obj), 0)
        self.costs[id(obj)] = cost
        self.max_bytes_allocated = max(self.max_bytes_allocated, self.bytes_allocated)

    def release(self, obj):
        self.bytes_allocated -= self.costs.pop(id(obj), 0)


PAGES, TXNS = 12, 3

tag_steps = st.one_of(
    # Page births, or a re-price of pages of one old set to a superset.
    st.tuples(
        st.sampled_from(["birth", "merge"]),
        st.lists(st.integers(0, PAGES - 1), min_size=1, max_size=PAGES, unique=True),
        st.integers(1, 6),
    ),
    st.tuples(st.just("txn"), st.integers(0, TXNS - 1), st.integers(1, 6)),
    st.tuples(st.just("release_page"), st.integers(0, PAGES - 1), st.just(0)),
    st.tuples(st.just("release_txn"), st.integers(0, TXNS - 1), st.just(0)),
)


@given(st.lists(tag_steps, max_size=60))
def test_run_reprice_matches_per_object_accounting(steps):
    """``account_tags`` over a run of pages equals one ``account_tag``
    per page, in order: births, and re-prices of pages of one old set
    to a set holding it (as a merge of writers makes), interleaved
    with page releases, journal-transaction tags and their releases:
    the total, its peak and the live count agree after every step."""
    tags, reference = TagManager(), _TagReference()
    pages = [object() for _ in range(PAGES)]
    txns = [object() for _ in range(TXNS)]
    npids_of = {}  # tagged page -> its set's size
    for kind, target, npids in steps:
        if kind == "birth":
            born = [i for i in target if i not in npids_of]
            if born:
                tags.account_tags(len(born), CauseSet(range(npids)))
            for i in born:
                reference.account(pages[i], npids)
                npids_of[i] = npids
        elif kind == "merge":
            old = npids_of.get(target[0])
            if old is not None:
                run = [i for i in target if npids_of.get(i) == old]
                new = max(old, npids)
                tags.account_tags(len(run), CauseSet(range(new)), CauseSet(range(old)))
                for i in run:
                    reference.account(pages[i], new)
                    npids_of[i] = new
        elif kind == "release_page":
            old = npids_of.pop(target, None)
            if old is not None:
                tags.release_tags(1, CauseSet(range(old)))
                reference.release(pages[target])
        elif kind == "txn":
            tags.account_tag(txns[target], CauseSet(range(npids)))
            reference.account(txns[target], npids)
        else:
            tags.release_tag(txns[target])
            reference.release(txns[target])
        assert tags.bytes_allocated == reference.bytes_allocated
        assert tags.max_bytes_allocated == reference.max_bytes_allocated
        assert tags.live_tags == len(reference.costs)
