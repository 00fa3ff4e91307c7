"""Tests for the split hook table (Table 2) and hook base classes."""

from repro.core.hooks import SPLIT_HOOK_TABLE, SYSCALL_HOOKS, SchedulerHooks, SplitScheduler
from repro.core.framework import FRAMEWORK_PROPERTIES
from repro.proc import Task


def test_hook_table_covers_three_levels():
    levels = {level for level, _ in SPLIT_HOOK_TABLE.values()}
    assert levels == {"syscall", "memory", "block"}


def test_hook_table_matches_paper_inventory():
    """Table 2: which hooks are new and which are borrowed."""
    # Write interception is borrowed from SCS.
    assert SPLIT_HOOK_TABLE["write_entry"] == ("syscall", "SCS")
    # fsync and metadata-call scheduling are new in the split framework.
    assert SPLIT_HOOK_TABLE["fsync_entry"][1] == "new"
    assert SPLIT_HOOK_TABLE["creat_entry"][1] == "new"
    assert SPLIT_HOOK_TABLE["mkdir_entry"][1] == "new"
    # The memory-level hooks are the paper's novel contribution.
    assert SPLIT_HOOK_TABLE["buffer_dirty"] == ("memory", "new")
    assert SPLIT_HOOK_TABLE["buffer_free"] == ("memory", "new")
    # Block hooks come from the stock elevator framework.
    for name in ("block_add", "block_dispatch", "block_complete"):
        assert SPLIT_HOOK_TABLE[name][1] == "elevator"


def test_reads_are_exposed_but_not_split_scheduled():
    """The split framework exposes read syscalls (SCS needs them) but
    schedules reads below the cache; the table has no read entry."""
    assert "read" in SYSCALL_HOOKS
    assert "read_entry" not in SPLIT_HOOK_TABLE


def test_default_hooks_are_noops():
    hooks = SchedulerHooks()
    task = Task("t")
    assert hooks.syscall_entry(task, "write", {}) is None
    hooks.syscall_return(task, "write", {})  # must not raise
    hooks.on_buffers_dirty(1, 0, 1, None, None)
    hooks.on_buffer_free(1, 0, 1)


def test_default_elevator_is_noop():
    from repro.schedulers.noop import Noop

    assert isinstance(SchedulerHooks().make_elevator(), Noop)


def test_split_scheduler_is_its_own_elevator():
    class Minimal(SplitScheduler):
        def add_request(self, request):
            pass

        def next_request(self):
            return None

        def has_work(self):
            return False

    scheduler = Minimal()
    assert scheduler.make_elevator() is scheduler


def test_framework_properties_table():
    assert FRAMEWORK_PROPERTIES["split"] == {
        "cause_mapping": True,
        "cost_estimation": True,
        "reordering": True,
    }
    assert not FRAMEWORK_PROPERTIES["block"]["cause_mapping"]
    assert not FRAMEWORK_PROPERTIES["syscall"]["cost_estimation"]
    assert set(FRAMEWORK_PROPERTIES) == {"block", "syscall", "split"}
