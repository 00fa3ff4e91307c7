"""Figure 3: CFQ ignores priorities for buffered writes.

Eight threads (priorities 0–7) write sequentially to their own files.
Left plot: each thread's throughput share vs the priority-proportional
expectation.  Right plot: the *submitter* priority CFQ actually sees —
everything arrives from the priority-4 writeback task.
"""

from __future__ import annotations

from typing import Dict

from repro.config import StackConfig
from repro.experiments.common import build_stack, run_for
from repro.metrics.recorders import ThroughputTracker, deviation_from_ideal
from repro.obs.bus import BlockComplete
from repro.units import GB, MB
from repro.workloads import sequential_writer


def run(duration: float = 30.0, chunk: int = 1 * MB, memory_bytes: int = 1 * GB) -> Dict:
    env, machine = build_stack(StackConfig(scheduler="cfq", device="hdd", memory_bytes=memory_bytes))

    #: Tally the priority of the task that SUBMITTED each block write —
    #: what a block-level scheduler can observe.
    submit_prios: Dict[int, int] = {p: 0 for p in range(8)}

    def observe(event):
        request = event.request
        if request.is_write:
            submit_prios[request.submitter.priority] += request.nblocks

    machine.bus.subscribe(BlockComplete, observe)

    trackers = {}
    for prio in range(8):
        task = machine.spawn(f"writer-p{prio}", priority=prio)
        tracker = trackers[prio] = ThroughputTracker()
        env.process(
            sequential_writer(machine, task, f"/out{prio}", duration, chunk=chunk, tracker=tracker)
        )
    run_for(env, duration)

    rates = {p: trackers[p].rate(until=env.now) / MB for p in range(8)}
    total_requests = sum(submit_prios.values()) or 1
    ideal = {p: 8 - p for p in range(8)}
    return {
        "throughput_mbps": rates,
        "deviation_pct": deviation_from_ideal(rates, ideal),
        "ideal_weights": ideal,
        "submitter_priority_share": {
            p: submit_prios[p] / total_requests for p in range(8)
        },
    }
