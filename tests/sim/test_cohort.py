"""Same-instant semantics: events sharing a timestamp (a *cohort*).

The run loop dispatches one entry at a time, always the smallest
pending ``(time, priority, eid)`` in the heap.  These tests pin the
observable contract for same-instant events: they run in (priority,
eid) order, events scheduled *during* the instant still run at their
proper rank whichever path scheduled them, and a stop or crash
mid-instant leaves the queue resumable.
"""

import pytest

from repro.sim import Environment
from repro.sim.events import URGENT


def test_cohort_runs_in_schedule_order():
    env = Environment()
    fired = []
    for i in range(50):
        env.timeout(1, value=i).callbacks.append(lambda ev: fired.append(ev.value))
    env.run()
    assert fired == list(range(50))
    assert env.now == 1


def test_event_scheduled_during_cohort_at_same_instant_runs():
    env = Environment()
    fired = []

    def chain(ev):
        fired.append(ev.value)
        if ev.value == 0:
            # Scheduled mid-cohort at the current instant: runs after
            # the already-queued entries (it has a later eid).
            env.timeout(0, value="late").callbacks.append(
                lambda e: fired.append(e.value)
            )

    for i in range(3):
        env.timeout(1, value=i).callbacks.append(chain)
    env.run()
    assert fired == [0, 1, 2, "late"]


def test_urgent_interloper_preempts_cohort_remainder():
    env = Environment()
    fired = []

    def first(ev):
        fired.append(ev.value)
        urgent = env.event()
        urgent.callbacks.append(lambda e: fired.append("urgent"))
        env.schedule(urgent, priority=URGENT)

    env.timeout(1, value="a").callbacks.append(first)
    env.timeout(1, value="b").callbacks.append(lambda ev: fired.append(ev.value))
    env.run()
    # URGENT sorts before the pending NORMAL cohort entry, so it runs
    # between "a" and "b" — exactly as one-at-a-time dispatch would.
    assert fired == ["a", "urgent", "b"]


def test_front_slot_urgent_interloper_preempts_cohort_remainder():
    """A process spawned mid-cohort starts before the cohort remainder.

    Initialize schedules URGENT through its own fused insert, not
    ``schedule()``.  When the kernel parked that entry in a front slot
    beside the heap (deleted since), missing it delayed the process
    start behind every remaining same-instant event, and whether the
    slot was free depended on unrelated traffic elsewhere in the
    Environment (the shard-layout divergence this pins down).
    """
    env = Environment()
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
    env.run()
    assert fired == ["a", "started", "b"]


def test_heap_and_front_slot_interlopers_run_in_eid_order():
    env = Environment()
    fired = []

    def body():
        fired.append("slot")
        return
        yield  # pragma: no cover - makes this a generator

    def spawn(ev):
        fired.append(ev.value)
        heap_urgent = env.event()
        heap_urgent.callbacks.append(lambda e: fired.append("heap"))
        env.schedule(heap_urgent, priority=URGENT)  # schedule() path, older eid
        env.process(body())  # fused Initialize path, younger eid

    env.timeout(1, value="a").callbacks.append(spawn)
    env.timeout(1, value="b").callbacks.append(lambda ev: fired.append(ev.value))
    env.run()
    assert fired == ["a", "heap", "slot", "b"]


def test_until_event_mid_cohort_stops_and_resumes_cleanly():
    env = Environment()
    fired = []
    env.timeout(1, value=0).callbacks.append(lambda ev: fired.append(ev.value))
    stop = env.timeout(1)  # the until-event sits inside the cohort
    env.timeout(1, value=2).callbacks.append(lambda ev: fired.append(ev.value))
    env.timeout(1, value=3).callbacks.append(lambda ev: fired.append(ev.value))
    env.run(until=stop)
    # 0 and the stop trigger ran; 2 and 3 were pushed back.
    assert fired == [0]
    env.run()
    assert fired == [0, 2, 3]
    assert env.now == 1


def test_crashing_callback_mid_cohort_leaves_queue_resumable():
    env = Environment()
    fired = []

    def boom(ev):
        raise RuntimeError("boom")

    env.timeout(1, value=0).callbacks.append(lambda ev: fired.append(ev.value))
    env.timeout(1).callbacks.append(boom)
    env.timeout(1, value=2).callbacks.append(lambda ev: fired.append(ev.value))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    assert fired == [0]
    env.run()  # the undispatched remainder survived the crash
    assert fired == [0, 2]


def test_nested_run_during_cohort_falls_back_safely():
    """A callback running another Environment to completion mid-instant
    must not disturb the outer run's same-instant order."""
    env = Environment()
    fired = []

    def outer(ev):
        inner = Environment()
        inner.timeout(1, value="inner").callbacks.append(
            lambda e: fired.append(e.value)
        )
        inner.run()
        fired.append(ev.value)

    env.timeout(1, value="a").callbacks.append(outer)
    env.timeout(1, value="b").callbacks.append(lambda ev: fired.append(ev.value))
    env.run()
    assert fired == ["inner", "a", "b"]
