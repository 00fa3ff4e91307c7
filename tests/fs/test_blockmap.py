"""The extent block map against a plain dict, and the run-shaped read path."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Environment, OS, SSD, KB, MB
from repro.cache import PageCache, PageKey
from repro.core.tags import TagManager
from repro.fs import BlockMap
from repro.fs.base import _block_runs
from repro.schedulers import Noop
from repro.units import PAGE_SIZE

PAGES = 40


def expand(runs):
    """``(index, block, count)`` runs as per-page ``(index, block)`` pairs."""
    return [(index + k, block + k) for index, block, count in runs for k in range(count)]


def check_against(bm, model):
    assert len(bm) == len(model)
    assert list(bm.items()) == sorted(model.items())
    assert list(bm) == sorted(model)
    assert list(bm.values()) == [model[i] for i in sorted(model)]
    assert dict(bm) == model and bm == model
    for index in range(-1, PAGES + 2):
        assert bm.get(index) == model.get(index)
        assert (index in bm) == (index in model)
    for first in range(0, PAGES + 1, 3):
        for stop in range(first, PAGES + 2, 5):
            runs = bm.runs(first, stop)
            assert expand(runs) == [(i, model[i]) for i in range(first, stop) if i in model]
    # Extents are sorted, disjoint, non-empty, and maximal: no extent
    # continues the one before it in both index and block.
    runs = bm.runs()
    assert expand(runs) == sorted(model.items())
    for (i, b, n), (j, c, m) in zip(runs, runs[1:]):
        assert n > 0 and m > 0 and i + n <= j
        assert not (i + n == j and b + n == c)


operation = st.one_of(
    st.tuples(st.just("map_run"), st.integers(0, PAGES - 1), st.integers(0, 60), st.integers(1, 8)),
    st.tuples(st.just("set"), st.integers(0, PAGES - 1), st.integers(0, 60), st.just(0)),
    st.tuples(st.just("pop"), st.integers(0, PAGES - 1), st.just(0), st.just(0)),
    st.tuples(st.just("del"), st.integers(0, PAGES - 1), st.just(0), st.just(0)),
    st.tuples(st.just("unmap"), st.integers(0, PAGES - 1), st.just(0), st.integers(1, 12)),
    st.tuples(st.just("clear"), st.just(0), st.just(0), st.just(0)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(operation, min_size=1, max_size=40))
def test_block_map_matches_a_dict(ops):
    bm, model = BlockMap(), {}
    for kind, index, block, count in ops:
        if kind == "map_run":
            bm.map_run(index, block, count)
            model.update((index + k, block + k) for k in range(count))
        elif kind == "set":
            bm[index] = block
            model[index] = block
        elif kind == "pop":
            assert bm.pop(index, None) == model.pop(index, None)
        elif kind == "del":
            if index in model:
                del bm[index], model[index]
            else:
                with pytest.raises(KeyError):
                    del bm[index]
        elif kind == "unmap":
            expected = [(i, model.pop(i)) for i in range(index, index + count) if i in model]
            assert expand(bm.unmap(index, index + count)) == expected
        else:
            bm.clear()
            model.clear()
        check_against(bm, model)


def test_in_order_runs_merge_into_one_extent():
    bm = BlockMap()
    for start in range(0, 256, 16):
        bm.map_run(start, 1000 + start, 16)
    assert bm.runs() == [(0, 1000, 256)]
    assert len(bm) == 256
    bm.map_run(256, 5000, 4)  # next page, but not the next block
    assert bm.runs(250, 300) == [(250, 1250, 6), (256, 5000, 4)]


def test_filling_a_hole_joins_both_neighbours():
    bm = BlockMap({0: 10, 1: 11, 4: 14})
    bm.map_run(2, 12, 2)
    assert bm.runs() == [(0, 10, 5)]
    assert bm.pop(2) == 12
    assert bm.runs() == [(0, 10, 2), (3, 13, 2)]
    with pytest.raises(KeyError):
        bm.pop(2)
    with pytest.raises(KeyError):
        bm[2]
    with pytest.raises(ValueError):
        bm.map_run(7, 70, 0)


# -- _block_runs: one block request per stretch of consecutive blocks --------------


def pairwise_block_runs(pairs):
    """The per-page split the run grouping replaces: sort ``(index,
    block)`` pairs by block and cut wherever the blocks jump."""
    pairs = sorted(pairs, key=lambda pair: pair[1])
    groups = [[pairs[0]]]
    for pair in pairs[1:]:
        if pair[1] == groups[-1][-1][1] + 1:
            groups[-1].append(pair)
        else:
            groups.append([pair])
    return groups


def test_block_runs_group_block_contiguous_runs_across_an_index_jump():
    runs = [(0, 100, 2), (5, 102, 3)]
    assert _block_runs(runs) == [[(0, 100, 2), (5, 102, 3)]]


def test_block_runs_of_descending_blocks_follow_block_order():
    # Each page one block below the one before: one stretch, block order.
    assert _block_runs([(0, 102, 1), (1, 101, 1), (2, 100, 1)]) == [
        [(2, 100, 1), (1, 101, 1), (0, 102, 1)]
    ]
    # Blocks that jump: one request each, lowest block first.
    assert _block_runs([(0, 300, 2), (2, 200, 2), (4, 100, 2)]) == [
        [(4, 100, 2)], [(2, 200, 2)], [(0, 300, 2)]
    ]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3)), min_size=1, max_size=10),
       st.randoms(use_true_random=False))
def test_block_runs_match_the_per_page_split(shape, rng):
    """Random disjoint runs on distinct blocks: expanded page by page,
    the groups are exactly those of the per-page split."""
    runs, index = [], 0
    for count, gap in shape:
        runs.append([index, None, count])
        index += count + gap
    # Lay the runs out on disk in a random order, with random gaps.
    block = 1000
    for run in rng.sample(runs, len(runs)):
        run[1] = block
        block += run[2] + rng.choice((0, 0, 1, 5))
    runs = [tuple(run) for run in runs]
    pairs = expand(runs)
    assert [expand(group) for group in _block_runs(list(runs))] == pairwise_block_runs(pairs)


def reads_of(machine):
    submitted = []
    submit = machine.block_queue.submit

    def record(request):
        submitted.append((request.block, request.nblocks))
        return submit(request)

    machine.block_queue.submit = record
    return submitted


def test_holes_inside_a_gap_are_zero_filled_and_the_rest_is_one_request():
    env = Environment()
    machine = OS(env, device=SSD(), scheduler=Noop(), memory_bytes=64 * MB)
    task = machine.spawn("t")
    inode = machine.fs.create(task, "/sparse")
    inode.size = 10 * PAGE_SIZE
    # Pages 3-4 are holes; the pages around them continue on disk.
    inode.block_map.map_run(0, 50000, 3)
    inode.block_map.map_run(5, 50003, 5)
    submitted = reads_of(machine)
    proc = env.process(machine.fs.read(task, inode, 0, 10 * PAGE_SIZE))
    env.run(until=proc)
    assert submitted == [(50000, 8)]
    cache = machine.cache
    assert (cache.hits, cache.misses) == (2, 8)
    assert cache.contains_range(inode.id, 0, 10)
    order = [key.index for key in cache.clean_keys()]
    assert order == [3, 4, 0, 1, 2, 5, 6, 7, 8, 9]  # holes first, then block order


def test_read_of_descending_blocks_caches_pages_in_block_order():
    env = Environment()
    cache = PageCache(env, TagManager(), memory_bytes=16 * MB)
    bm = BlockMap({0: 102, 1: 101, 2: 100})
    runs = cache.lookup_range(1, 0, 3, bm)
    assert runs == [(0, 102, 1), (1, 101, 1), (2, 100, 1)]
    (group,) = _block_runs(runs)
    cache.insert_clean_run(1, group)
    assert list(cache.clean_keys()) == [PageKey(1, 2), PageKey(1, 1), PageKey(1, 0)]


def test_direct_read_takes_its_runs_from_the_block_map():
    env = Environment()
    machine = OS(env, device=SSD(), scheduler=Noop(), memory_bytes=64 * MB)
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.pwrite(0, 16 * KB, direct=True)
        yield from handle.pwrite(64 * KB, 8 * KB, direct=True)  # pages 16-17
        submitted = reads_of(machine)
        yield from handle.pread(0, 72 * KB, direct=True)
        return handle.inode, submitted

    process = env.process(proc())
    env.run(until=process)
    inode, submitted = process.value
    # Pages 0-3 and 16-17 were allocated back to back: one request.
    assert inode.block_map.runs() == [(0, inode.block_map[0], 4), (16, inode.block_map[0] + 4, 2)]
    assert submitted == [(inode.block_map[0], 6)]
    assert len(machine.cache) == 0
