"""The kernel against a heapq-only reference model, on random programs.

One random program runs on four kernels: ``Environment.run()``, a
``step()`` loop, :class:`SanitizedEnvironment`, and :class:`RefKernel`
below — a plain heap of ``(time, priority, seq, action)`` entries with
none of the kernel's fused inserts, inlined run loop or callback pool.
All four must fire the same labels at the same times, stop at the same
point of a ``run(until=event)`` that ends mid-instant, and end at the
same ``now``.

Programs mix the cases same-instant order depends on: timeouts with
tied times and zero delays, URGENT ``schedule()`` calls from callbacks,
processes spawned at the current instant, and ``cancel()`` calls.
"""

import heapq
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SanitizedEnvironment
from repro.sim import Environment
from repro.sim.core import EmptySchedule
from repro.sim.events import NORMAL, URGENT


class RefKernel:
    """Reference kernel: one heapq, one entry per pop, nothing else."""

    def __init__(self):
        self.now, self._seq, self._heap = 0.0, 0, []

    def timeout(self, delay, fn, priority=NORMAL):
        self._seq += 1
        entry = [self.now + delay, priority, self._seq, fn]
        heapq.heappush(self._heap, entry)
        return entry

    def urgent(self, fn):
        self.timeout(0.0, fn, URGENT)

    def spawn(self, start, delay, end):
        self.urgent(lambda: (start(), self.timeout(delay, end)))

    def cancel(self, entry):
        entry[3] = None

    def run(self, until=None):
        while self._heap:
            entry = heapq.heappop(self._heap)
            self.now = entry[0]
            if entry[3] is not None:
                entry[3]()
            if entry is until:
                return


class KernelApi:
    """The same four program operations on a real Environment."""

    def __init__(self, env):
        self.env = env

    @property
    def now(self):
        return self.env.now

    def timeout(self, delay, fn):
        event = self.env.timeout(delay)
        event.callbacks.append(lambda ev: fn())
        return event

    def urgent(self, fn):
        event = self.env.event()
        event.callbacks.append(lambda ev: fn())
        self.env.schedule(event, priority=URGENT)

    def spawn(self, start, delay, end):
        def body():
            start()
            yield self.env.timeout(delay)
            end()

        self.env.process(body())

    def cancel(self, event):
        event.cancel()


def execute(api, ops, fired, created, labels):
    """Run one list of program operations on *api* at the current instant.

    Every scheduled action logs ``(label, phase, now)`` when it fires and
    then runs its child operations.  ``created`` lists the timeouts a
    ``cancel`` may target, in creation order.
    """
    for op in ops:
        kind = op[0]
        if kind == "cancel":
            if created:
                api.cancel(created[op[1] % len(created)])
            continue
        label = next(labels)

        def fire(label=label, kids=op[-1], phase="fire"):
            fired.append((label, phase, api.now))
            execute(api, kids, fired, created, labels)

        if kind == "timeout":
            created.append(api.timeout(op[1], fire))
        elif kind == "urgent":
            api.urgent(fire)
        else:  # spawn: start now, then sleep op[1] and log once more
            api.spawn(fire, op[1], lambda label=label: fire(label, (), "end"))


delays = st.sampled_from([0.0, 0.0, 0.5, 1.0])
leaf = st.tuples(st.just("cancel"), st.integers(0, 63)) | st.tuples(
    st.just("timeout"), delays, st.just(())
)


def _extend(children):
    kids = st.lists(children, max_size=3)
    return st.one_of(
        st.tuples(st.just("timeout"), delays, kids),
        st.tuples(st.just("urgent"), kids),
        st.tuples(st.just("spawn"), delays, kids),
    )


operation = st.recursive(leaf, _extend, max_leaves=24)


def play(kind, ops, stop_at, stop_delay):
    """Run the program on one kernel; return its fire log and final now."""
    if kind == "reference":
        api = kernel = RefKernel()
    else:
        env = SanitizedEnvironment() if kind == "sanitized" else Environment()
        api = KernelApi(env)
    fired, created, labels = [], [], count()
    execute(api, ops[:stop_at], fired, created, labels)
    stop = api.timeout(stop_delay, lambda: None)
    api.timeout(stop_delay, lambda: None)  # a same-instant entry left pending
    execute(api, ops[stop_at:], fired, created, labels)

    if kind == "reference":
        kernel.run(until=stop)
        fired.append("STOP")
        kernel.run()
        return fired, kernel.now
    if kind == "step":
        while stop.callbacks is not None:
            env.step()
        fired.append("STOP")
        try:
            while True:
                env.step()
        except EmptySchedule:
            pass
    else:
        env.run(until=stop)
        fired.append("STOP")
        env.run()
    return fired, env.now


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(operation, min_size=1, max_size=8),
    stop_at=st.integers(0, 8),
    stop_delay=delays,
)
def test_kernels_match_heapq_reference(ops, stop_at, stop_delay):
    expected = play("reference", ops, stop_at, stop_delay)
    for kind in ("run", "step", "sanitized"):
        assert play(kind, ops, stop_at, stop_delay) == expected, kind
