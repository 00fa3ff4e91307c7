"""Ablation: why Split-Token needs BOTH cost-estimation stages (§3.2).

The paper argues neither prompt (memory-level) nor accurate
(block-level) accounting suffices alone; Figure 8's trade-off is why
Split-Token charges promptly and revises later.  This bench disables
each stage:

- no block revision -> random writes are billed at the (bounded)
  memory guess only: the throttled writer systematically overshoots
  its normalized budget;
- no prompt charging -> a burst dirties far more than the budget
  before the first (accurate) charge lands: the cap is enforced only
  in arrears.
"""

from repro.config import StackConfig
from repro.experiments.common import build_stack, drive, run_for
from repro.schedulers.split_token import SplitToken
from repro.units import KB, MB
from repro.workloads import prefill_file, run_pattern_writer
from repro.metrics.recorders import ThroughputTracker


def _run(variant: str, duration: float = 15.0):
    flags = {
        "full": dict(prompt_charging=True, block_revision=True),
        "no-revision": dict(prompt_charging=True, block_revision=False),
        "no-prompt": dict(prompt_charging=False, block_revision=True),
    }[variant]
    scheduler = SplitToken(**flags)
    # Small memory so writeback (and thus the block-level revision)
    # happens *during* the measurement window.
    env, machine = build_stack(
        StackConfig(scheduler=scheduler, device="hdd", memory_bytes=64 * MB)
    )
    setup = machine.spawn("setup")

    def setup_proc():
        yield from prefill_file(machine, setup, "/bdata", 256 * MB)

    drive(env, setup_proc())
    b = machine.spawn("B")
    bucket = scheduler.set_limit(b, 1 * MB)
    tracker = ThroughputTracker()
    env.process(run_pattern_writer(machine, b, "/bdata", 4 * KB, duration, tracker=tracker))
    run_for(env, duration)
    # Flush the backlog so late charges land, then read the books.
    machine.writeback.request_flush(0)
    run_for(env, 30.0)
    return {
        "b_dirty_rate_mb": tracker.rate(until=tracker.ended_at or env.now) / MB,
        "b_charged_total_mb": bucket.charged_total / MB,
        "budget_mb": 1 * duration,
    }


def test_ablation_cost_model(once):
    results = once(lambda: {v: _run(v) for v in ("full", "no-revision", "no-prompt")})

    print("\nAblation — Split-Token cost-model stages (B: 4 KB random writes, 1 MB/s cap)")
    print(f"{'variant':>12} {'B dirty MB/s':>13} {'charged MB':>11} {'budget MB':>10}")
    for name, r in results.items():
        print(f"{name:>12} {r['b_dirty_rate_mb']:>13.2f} {r['b_charged_total_mb']:>11.1f} "
              f"{r['budget_mb']:>10.0f}")

    full, norev, noprompt = results["full"], results["no-revision"], results["no-prompt"]
    # Without prompt charging, enforcement lags behind the work: B
    # dirties several times faster than the full scheduler allows
    # before the (accurate) block-level charges catch up.
    assert noprompt["b_dirty_rate_mb"] > 5 * full["b_dirty_rate_mb"]
    # Without the block-level revision, the seek amplification of B's
    # random writes is never billed: B's total charges are a fraction
    # of what the true disk cost (visible in the full scheduler's
    # books once everything flushed) amounts to.
    assert norev["b_charged_total_mb"] < 0.3 * full["b_charged_total_mb"]
    # The revision reveals how badly the prompt estimate undershoots
    # for random writes: actual normalized cost is many times the
    # nominal budget.
    assert full["b_charged_total_mb"] > 5 * full["budget_mb"]
