"""Runtime sanitizer: each invariant is deliberately broken and caught.

Structure mirrors the sanitizer's three attachment points:

- :class:`SanitizedEnvironment` — equivalence with the production
  kernel on same-instant scenarios, then each check (negative delay,
  monotonic clock, dispatch order) tripped on purpose.  The
  dispatch-order test reintroduces PR 8's bug class (dispatching a
  young same-instant entry without comparing it to the heap head) in
  a subclass's ``_pop`` and asserts the sanitizer converts the silent
  reordering into a :class:`SanitizerError`.
- :class:`StackSanitizer` — a real built machine with each bus-level
  invariant forced false (slot bound, request conservation, token
  conservation) plus the ``close()`` detach contract.
- the shard layer — conservative-sync causality and duplicate
  sequence-number detection.
"""

import types

import pytest

from repro.analysis.sanitizer import (
    SanitizedEnvironment,
    SanitizerError,
    StackSanitizer,
    attach_sanitizer,
    check_delivery,
)
from repro.config import StackConfig
from repro.experiments.common import build_stack, drive, make_environment, using
from repro.obs.bus import BlockComplete, DeviceStart
from repro.sim import Environment
from repro.sim.events import NORMAL, URGENT
from repro.sim.shard.channel import InterShardChannel
from repro.sim.shard.message import ShardMessage
from repro.units import KB, MB

# -- SanitizedEnvironment: equivalence with the production kernel -----------


def _front_slot_scenario(env):
    """The PR 8 regression scenario: a process spawned mid-instant
    schedules an URGENT Initialize (the kernel once parked it in a
    since-deleted front slot); it must run before the remaining
    same-instant entries."""
    fired = []

    def body():
        fired.append("started")
        return
        yield  # pragma: no cover - makes this a generator

    def spawn(ev):
        fired.append(ev.value)
        env.process(body())

    env.timeout(1, value="a").callbacks.append(spawn)
    env.timeout(1, value="b").callbacks.append(lambda ev: fired.append(ev.value))
    return fired


def test_sanitized_env_matches_production_order():
    results = []
    for env_class in (Environment, SanitizedEnvironment):
        env = env_class()
        fired = _front_slot_scenario(env)
        env.run()
        results.append(fired)
    assert results[0] == results[1] == ["a", "started", "b"]


def test_sanitized_env_cohort_order_matches_production():
    results = []
    for env_class in (Environment, SanitizedEnvironment):
        env = env_class()
        fired = []
        for i in range(20):
            env.timeout(1, value=i).callbacks.append(
                lambda ev: fired.append(ev.value)
            )
        env.run()
        results.append(fired)
    assert results[0] == results[1] == list(range(20))


def test_sanitized_env_until_event_mid_cohort_resumes():
    env = SanitizedEnvironment()
    fired = []
    env.timeout(1, value=0).callbacks.append(lambda ev: fired.append(ev.value))
    stop = env.timeout(1)
    env.timeout(1, value=2).callbacks.append(lambda ev: fired.append(ev.value))
    env.run(until=stop)
    assert fired == [0]
    env.run()
    assert fired == [0, 2]
    assert env.now == 1


def test_sanitized_env_until_time_and_empty_schedule():
    env = SanitizedEnvironment()
    env.timeout(3)
    env.run(until=2.0)
    assert env.now == 2.0
    env.run()  # drains the remaining timeout, then EmptySchedule -> None
    assert env.now == 3.0


# -- SanitizedEnvironment: each invariant tripped on purpose ----------------


def test_negative_delay_schedule_raises():
    env = SanitizedEnvironment()
    with pytest.raises(SanitizerError, match="negative delay"):
        env.schedule(env.event(), delay=-1.0)


def test_negative_delay_passes_on_production_subclassed_check_only():
    # The production Environment has no such check; the guard is what
    # the sanitizer adds.  Zero delay stays legal on both.
    env = SanitizedEnvironment()
    env.schedule(env.event(), delay=0.0)


def test_monotonic_clock_violation_raises():
    env = SanitizedEnvironment()
    env.timeout(5)
    env.run()
    assert env.now == 5
    with pytest.raises(SanitizerError, match="monotonic clock"):
        env._dispatch((1.0, NORMAL, 999_999, env.event()))


def _slot_after_heap_scenario(env):
    """Mid-instant, an URGENT event is scheduled, then a process spawn
    schedules a younger URGENT Initialize — the newest pending entry is
    *not* the minimum.  (The name records the PR 8 layout: the
    Initialize sat in a since-deleted front slot, the older URGENT
    entry in the heap.)"""
    fired = []

    def body():
        fired.append("started")
        return
        yield  # pragma: no cover - makes this a generator

    def spawn(ev):
        fired.append(ev.value)
        urgent = env.event()
        urgent.callbacks.append(lambda e: fired.append("urgent"))
        env.schedule(urgent, priority=URGENT)  # older eid
        env.process(body())  # younger eid

    env.timeout(1, value="a").callbacks.append(spawn)
    env.timeout(1, value="b").callbacks.append(lambda ev: fired.append(ev.value))
    return fired


class BuggyPopEnv(SanitizedEnvironment):
    """SanitizedEnvironment with PR 8's bug class reintroduced at the
    entry-selection seam.

    This ``_pop`` trusts the newest entry whenever it is due at the
    current instant and takes it off the end of the heap list without
    comparing it to the heap head, so an older same-instant entry that
    sorts first is dispatched late.  Whether the newest entry is due now
    depends on unrelated traffic, so the order would too — the
    divergence class PR 8 fixed.  The inherited checked ``_dispatch``
    must turn that silent reordering into a SanitizerError.
    """

    __slots__ = ()

    def _pop(self):
        queue = self._queue
        if queue and queue[-1][0] == self.now:  # BUG: no comparison with queue[0]
            return queue.pop()
        return super()._pop()


def test_reintroduced_cohort_bug_is_caught():
    env = BuggyPopEnv()
    fired = _slot_after_heap_scenario(env)
    with pytest.raises(SanitizerError, match="dispatch order") as excinfo:
        env.run()
    # The buggy kernel dispatched the newest Initialize while an older
    # URGENT entry sat at the heap head; the error names both entries
    # and the history shows the dispatches that led up to it.
    err = excinfo.value
    assert "heap head" in str(err)
    assert "dispatching" in err.context and "pending" in err.context
    assert err.context["pending"][1] == 0  # URGENT priority
    assert err.history, "recent-dispatch snippet missing"
    assert fired == ["a"]  # neither URGENT entry ran; the violation fired first


def test_correct_kernel_passes_slot_after_heap_scenario():
    results = []
    for env_class in (Environment, SanitizedEnvironment):
        env = env_class()
        fired = _slot_after_heap_scenario(env)
        env.run()
        results.append(fired)
    assert results[0] == results[1] == ["a", "urgent", "started", "b"]


def test_correct_kernel_passes_same_scenario():
    env = SanitizedEnvironment()
    fired = _front_slot_scenario(env)
    env.run()
    assert fired == ["a", "started", "b"]


def test_sanitizer_error_formats_history_and_context():
    err = SanitizerError(
        "boom",
        history=[(1.0, 1, 7, "Timeout")],
        context={"k": "v"},
    )
    text = str(err)
    assert "boom" in text
    assert "context: k='v'" in text
    assert "t=1.0 priority=1 eid=7 Timeout" in text
    assert isinstance(err, AssertionError)


# -- StackSanitizer: machine-level invariants --------------------------------


def _sanitized_machine():
    # sanitize=False pins the session default off (REPRO_SANITIZE=1 CI
    # runs would otherwise attach a second sanitizer in build_node that
    # close() below wouldn't detach); these tests attach their own.
    env, machine = build_stack(
        StackConfig(
            device="ssd",
            scheduler="split-token",
            memory_bytes=64 * MB,
            sanitize=False,
        )
    )
    sanitizer = attach_sanitizer(machine)
    return env, machine, sanitizer


def _fake_complete(env, request_id=1, runs=()):
    request = types.SimpleNamespace(id=request_id, failed=False, runs=list(runs))
    return BlockComplete(time=env.now, request=request)


def test_slot_bound_violation_detected():
    env, machine, _san = _sanitized_machine()
    device = machine.block_queue.device
    device.active = device.channels + 1
    with pytest.raises(SanitizerError, match="slot bound") as excinfo:
        machine.bus.publish(
            DeviceStart(
                time=env.now,
                device=device.name,
                op="read",
                block=0,
                nblocks=1,
                attempt=1,
            )
        )
    assert excinfo.value.context["active"] == device.channels + 1


def test_request_conservation_violation_detected():
    env, machine, _san = _sanitized_machine()
    queue = machine.block_queue
    queue.completed = queue.submitted + 1  # a done event "fired twice"
    with pytest.raises(SanitizerError, match="conservation"):
        machine.bus.publish(_fake_complete(env))


def test_token_over_refund_detected():
    env, machine, _san = _sanitized_machine()
    task = machine.spawn("t")
    bucket = machine.scheduler.set_limit(task, rate=100.0)
    bucket.refund(50.0)  # never charged: refunded_total > charged_total
    with pytest.raises(SanitizerError, match="refunded more") as excinfo:
        machine.bus.publish(_fake_complete(env))
    assert excinfo.value.context["refunded"] == pytest.approx(50.0)


def test_token_balance_over_cap_detected():
    env, machine, _san = _sanitized_machine()
    task = machine.spawn("t")
    bucket = machine.scheduler.set_limit(task, rate=100.0, cap=10.0)
    bucket._balance = 25.0  # above the burst cap
    with pytest.raises(SanitizerError, match="burst cap"):
        machine.bus.publish(_fake_complete(env))


def test_page_cache_dirty_byte_drift_detected():
    env, machine, _san = _sanitized_machine()
    machine.cache.dirty_bytes += 1  # a dirty page's bytes counted twice
    with pytest.raises(SanitizerError, match="dirty bytes") as excinfo:
        machine.bus.publish(_fake_complete(env))
    assert excinfo.value.context["dirty_bytes"] == 1


def test_page_cache_clean_count_drift_detected():
    env, machine, _san = _sanitized_machine()
    cache = machine.cache
    cache._clean_pages = -1  # more clean pages dropped than ever cached
    with pytest.raises(SanitizerError, match="clean \\+ dirty"):
        machine.bus.publish(_fake_complete(env))
    cache._clean_pages = cache.capacity_pages + 1  # an eviction skipped
    with pytest.raises(SanitizerError, match="over capacity") as excinfo:
        machine.bus.publish(_fake_complete(env))
    assert excinfo.value.context["resident"] == cache.capacity_pages + 1


def test_tag_accounting_drift_detected():
    env, machine, _san = _sanitized_machine()
    tags = machine.cache.tags
    task = machine.spawn("t")

    def write():
        handle = yield from machine.creat(task, "/f")
        yield from handle.write(16 * KB)

    drive(env, write())
    machine.bus.publish(_fake_complete(env))  # consistent: passes
    allocations, page_tags = dict(tags._allocations), tags._page_tags
    tags._allocations.clear()  # dirty pages whose tags were dropped
    tags._page_tags = 0
    with pytest.raises(SanitizerError, match="tag accounting") as excinfo:
        machine.bus.publish(_fake_complete(env))
    assert excinfo.value.context["live_tags"] == 0
    assert excinfo.value.context["dirty"] == machine.cache.dirty_pages > 0
    tags._allocations.update(allocations)
    tags._page_tags = page_tags
    tags.bytes_allocated = tags.max_bytes_allocated + 1  # total above its peak
    with pytest.raises(SanitizerError, match="tag accounting"):
        machine.bus.publish(_fake_complete(env))
    tags.bytes_allocated = 0  # below the base cost of the live tags
    with pytest.raises(SanitizerError, match="tag accounting"):
        machine.bus.publish(_fake_complete(env))


def test_cpu_core_drift_detected():
    env, machine, _san = _sanitized_machine()
    cpu = machine.cpu
    machine.bus.publish(_fake_complete(env))  # consistent: passes
    cpu.busy_cores = cpu.cores + 1  # a core released twice the wrong way
    with pytest.raises(SanitizerError, match="CPU accounting") as excinfo:
        machine.bus.publish(_fake_complete(env))
    assert excinfo.value.context["busy_cores"] == cpu.cores + 1
    cpu.busy_cores = -1  # a core released twice
    with pytest.raises(SanitizerError, match="CPU accounting"):
        machine.bus.publish(_fake_complete(env))
    cpu.busy_cores = cpu.cores - 1
    cpu.waiters.append(env.event())  # a waiter left behind by a release
    with pytest.raises(SanitizerError, match="CPU accounting") as excinfo:
        machine.bus.publish(_fake_complete(env))
    assert excinfo.value.context["waiting"] == 1
    cpu.busy_cores = cpu.cores  # every core busy: waiting is legal
    machine.bus.publish(_fake_complete(env))


def test_block_conservation_drift_detected():
    env, machine, _san = _sanitized_machine()
    task = machine.spawn("t")
    allocator = machine.fs.allocator

    def work():
        handle = yield from machine.creat(task, "/f")
        yield from handle.write(64 * KB)
        yield from handle.fsync()
        keep = yield from machine.creat(task, "/open")
        yield from keep.write(16 * KB)
        yield from keep.fsync()
        yield from machine.unlink(task, "/open")  # an orphan: its blocks stay mapped
        return handle.inode

    inode = drive(env, work())
    assert allocator.allocated == 20 and machine.vfs._orphans
    machine.bus.publish(_fake_complete(env))  # consistent: passes
    allocator.allocated += 1  # a block allocated but never mapped
    with pytest.raises(SanitizerError, match="block conservation") as excinfo:
        machine.bus.publish(_fake_complete(env))
    assert excinfo.value.context == {"allocated": 21, "mapped": 20}
    allocator.allocated -= 1
    inode.block_map.pop(3)  # a mapped block forgotten without a free
    with pytest.raises(SanitizerError, match="block conservation"):
        machine.bus.publish(_fake_complete(env))


def test_direct_write_leak_is_caught_by_block_conservation():
    """The O_DIRECT-over-delayed-allocation leak, reintroduced: the
    dirty page forgets the block the direct write gave it."""
    env, machine, _san = _sanitized_machine()
    task = machine.spawn("t")

    def work():
        handle = yield from machine.creat(task, "/f")
        yield from handle.pwrite(0, 4 * KB)
        yield from handle.pwrite(0, 4 * KB, direct=True)
        machine.cache.dirty_run((handle.inode.id, 0)).disk_block = None
        yield from handle.fsync()

    with pytest.raises(SanitizerError, match="block conservation") as excinfo:
        drive(env, work())
    assert excinfo.value.context == {"allocated": 2, "mapped": 1}


def _redirtied_runs(env, machine):
    """Four dirty pages of a file on allocated blocks, one run; then
    written and dirtied again while in flight, so a completed write of
    them leaves them dirty."""
    task = machine.spawn("t")

    def work():
        handle = yield from machine.creat(task, "/f")
        yield from handle.write(16 * KB)
        yield from handle.fsync()
        yield from handle.pwrite(0, 16 * KB)
        yield from handle.pwrite(0, 16 * KB)
        return handle.inode

    inode = drive(env, work())
    runs = machine.cache.dirty_pages_of(inode.id)
    for run in runs:
        run.write_submitted(runs)
    machine.cache.mark_dirty_range(inode.id, 0, 4, inode.block_map, task)
    machine.cache.write_completed(runs)
    assert [(run.start, run.stop) for run in runs] == [(0, 4)]
    assert all(run.dirty and run.redirtied for run in runs)
    return inode, runs


def test_dirty_page_block_drift_detected():
    env, machine, _san = _sanitized_machine()
    inode, runs = _redirtied_runs(env, machine)
    machine.bus.publish(_fake_complete(env, runs=runs))  # consistent: passes
    block = runs[0].disk_block
    runs[0].disk_block = block + 100  # blocks its file does not map there
    with pytest.raises(SanitizerError, match="dirty-run block") as excinfo:
        machine.bus.publish(_fake_complete(env, runs=runs))
    assert excinfo.value.context == {
        "run": (inode.id, 0, 4), "disk_block": block + 100, "mapped": [(0, block, 4)],
    }
    runs[0].disk_block = None  # delayed allocation is legal
    machine.bus.publish(_fake_complete(env, runs=runs))


def test_hint_left_live_after_its_page_was_cleaned_is_detected():
    """A cleaned run left in its file's dirty-run index is caught (the
    name records the dirty-run hint this index replaced)."""
    env, machine, _san = _sanitized_machine()
    inode, runs = _redirtied_runs(env, machine)
    run = runs[0]
    run.write_submitted()
    run.write_completed()  # cleaned: out of the index and the age list
    assert run.next is None and inode.id not in machine.cache._dirty.files
    machine.bus.publish(_fake_complete(env, runs=runs))  # consistent: passes
    machine.cache._dirty.files[inode.id] = ([run.start], [run])  # the cleaning forgot it
    with pytest.raises(SanitizerError, match="dirty-run violation") as excinfo:
        machine.bus.publish(_fake_complete(env))
    assert excinfo.value.context["run"] == (inode.id, 0, 4)


def test_dirty_run_tag_and_write_drift_detected():
    env, machine, _san = _sanitized_machine()
    inode, runs = _redirtied_runs(env, machine)
    tags = machine.cache.tags
    extra = tags.tag_cost(runs[0].causes)
    tags.bytes_allocated += extra  # a page's tag bytes counted twice
    tags.max_bytes_allocated += extra
    with pytest.raises(SanitizerError, match="dirty-run violation") as excinfo:
        machine.bus.publish(_fake_complete(env, runs=runs))
    context = excinfo.value.context
    assert context["pages"] == context["page_tags"] == 4
    assert context["run_tag_bytes"] == 4 * extra
    tags.bytes_allocated -= extra
    run = runs[0]
    run.write_submitted()
    run.batch = []  # in flight, but in no write's list
    with pytest.raises(SanitizerError, match="dirty-run violation"):
        machine.bus.publish(_fake_complete(env))


def _write_and_fsync(env, machine):
    """Sixteen pages written to a new file and fsynced: one block write
    whose completion cleans them all."""
    task = machine.spawn("t")

    def work():
        handle = yield from machine.creat(task, "/f")
        yield from handle.write(64 * KB)
        yield from handle.fsync()

    drive(env, work())


def test_written_page_left_dirty_is_detected(monkeypatch):
    env, machine, _san = _sanitized_machine()
    cache = machine.cache
    complete = cache.write_completed

    def forgetful(runs):  # the last run of each write is never cleaned
        runs[-1].under_writeback = False
        complete(runs[:-1])

    monkeypatch.setattr(cache, "write_completed", forgetful)
    with pytest.raises(SanitizerError, match="still dirty") as excinfo:
        _write_and_fsync(env, machine)
    assert excinfo.value.context["run"][1:] == (0, 16)


def test_cleaned_page_keeping_its_tag_is_detected(monkeypatch):
    env, machine, _san = _sanitized_machine()
    monkeypatch.setattr(machine.cache.tags, "release_tags", lambda count, causes: None)
    with pytest.raises(SanitizerError, match="dirty-run violation") as excinfo:
        _write_and_fsync(env, machine)
    assert excinfo.value.context["pages"] == 0
    assert excinfo.value.context["page_tags"] == 16


def test_cleaned_page_on_the_wrong_block_is_detected(monkeypatch):
    env, machine, _san = _sanitized_machine()
    cache = machine.cache
    append = cache._append

    def shifted(inode_id, start, stop, block):  # clean runs land one block off
        append(inode_id, start, stop, block + 1)

    monkeypatch.setattr(cache, "_append", shifted)
    with pytest.raises(SanitizerError, match="cleaned-run") as excinfo:
        _write_and_fsync(env, machine)
    context = excinfo.value.context
    assert context["clean_block"] == context["disk_block"] + 1


def test_cleaned_pages_evicted_at_once_from_a_full_cache_pass():
    """A cache holding only dirty pages, two over capacity: the write
    cleaning them evicts the first two it cleaned, which is legal."""
    env, machine, _san = _sanitized_machine()
    cache = machine.cache
    cache.mark_dirty_range(99, 0, cache.capacity_pages + 2, None, machine.spawn("t"))
    runs = cache.dirty_pages_of(99)
    for run in runs:
        run.write_submitted(runs)
    cache.write_completed(runs)
    assert cache.evictions == 2 and len(cache) == cache.capacity_pages
    machine.bus.publish(_fake_complete(env, runs=runs))  # consistent: passes
    cache._extents[99][1][0].block = 5  # a clean page off its disk block
    with pytest.raises(SanitizerError, match="cleaned-run"):
        machine.bus.publish(_fake_complete(env, runs=runs))


def test_clean_machine_passes_all_checks():
    env, machine, _san = _sanitized_machine()
    task = machine.spawn("t")
    machine.scheduler.set_limit(task, rate=100.0)

    def work():
        handle = yield from machine.creat(task, "/f")
        yield from handle.write(64 * KB)
        handle.seek(0)
        yield from handle.read(16 * KB)

    drive(env, work())  # no SanitizerError


def test_close_detaches_subscriptions():
    env, machine, sanitizer = _sanitized_machine()
    device = machine.block_queue.device
    device.active = device.channels + 1
    sanitizer.close()
    machine.bus.publish(  # no subscriber left; nothing raises
        DeviceStart(
            time=env.now,
            device=device.name,
            op="read",
            block=0,
            nblocks=1,
            attempt=1,
        )
    )
    sanitizer.close()  # idempotent


def test_build_node_attaches_sanitizer_when_config_asks():
    env, machine = build_stack(
        StackConfig(
            device="ssd",
            scheduler="split-token",
            memory_bytes=64 * MB,
            sanitize=True,
        )
    )
    assert isinstance(env, SanitizedEnvironment)
    assert any(
        isinstance(getattr(fn, "__self__", None), StackSanitizer)
        for fn in machine.bus.listeners(BlockComplete)
    )


# -- session flag and config plumbing ----------------------------------------


def test_make_environment_respects_flag_and_session_default():
    assert isinstance(make_environment(True), SanitizedEnvironment)
    env = make_environment(False)
    assert isinstance(env, Environment)
    assert not isinstance(env, SanitizedEnvironment)
    with using(sanitize=True):
        assert isinstance(make_environment(), SanitizedEnvironment)
        assert isinstance(make_environment(False), Environment)
    with using(sanitize=False):
        assert not isinstance(make_environment(), SanitizedEnvironment)


def test_stack_config_round_trips_sanitize():
    config = StackConfig(sanitize=True)
    assert config.to_dict()["sanitize"] is True
    assert StackConfig.from_dict(config.to_dict()).sanitize is True
    assert StackConfig().sanitize is None  # inherit the session default


def test_sanitized_stack_results_match_plain():
    def run_once(sanitize):
        env, machine = build_stack(
            StackConfig(
                device="ssd",
                scheduler="split-token",
                memory_bytes=64 * MB,
                sanitize=sanitize,
            )
        )
        task = machine.spawn("w")

        def work():
            handle = yield from machine.creat(task, "/f")
            yield from handle.write(256 * KB)
            handle.seek(0)
            n = yield from handle.read(64 * KB)
            return n

        value = drive(env, work())
        queue = machine.block_queue
        return (value, env.now, queue.submitted, queue.completed, queue.failed)

    assert run_once(False) == run_once(True)


# -- shard layer: causality and duplicate sequences --------------------------


def _message(arrival, src=0, seq=0, dst=1):
    return ShardMessage(
        arrival=arrival,
        src_node=src,
        seq=seq,
        dst_node=dst,
        kind="chunk",
        payload={},
    )


def test_check_delivery_rejects_past_arrivals():
    message = _message(arrival=4.0, src=2, seq=9)
    with pytest.raises(SanitizerError, match="causality") as excinfo:
        check_delivery(5.0, 4.0, message)
    context = excinfo.value.context
    assert context["src_node"] == 2
    assert context["seq"] == 9
    assert context["shard_now"] == 5.0


def test_check_delivery_allows_now_and_future():
    message = _message(arrival=5.0)
    check_delivery(5.0, 5.0, message)
    check_delivery(5.0, 6.0, message)


def test_channel_detects_duplicate_sequence_when_sanitized():
    channel = InterShardChannel(epoch=1.0, sanitize=True)
    message = _message(arrival=2.0)
    channel.push([message])
    with pytest.raises(SanitizerError, match="duplicate") as excinfo:
        channel.push([message])
    assert excinfo.value.context["seq"] == 0


def test_channel_without_sanitize_has_no_duplicate_tracking():
    channel = InterShardChannel(epoch=1.0)
    message = _message(arrival=2.0)
    channel.push([message])
    channel.push([message])  # production behaviour untouched
    assert channel.pending_count() == 2
