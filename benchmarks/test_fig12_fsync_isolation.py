"""Figure 12: fsync latency isolation (Split- vs Block-Deadline).

Paper: during B's big fsyncs, Block-Deadline lets A's fsync latency
grow by an order of magnitude; Split-Deadline keeps A fluctuating
around its deadline.  Tail latencies improve ~4x.  Both HDD and SSD.
"""

import pytest


@pytest.mark.parametrize("device", ["hdd", "ssd"])
def test_fig12_fsync_isolation(figure, device):
    results = figure("fig12", device=device, duration=20.0)

    print(f"\nFigure 12 ({device.upper()}) — A's fsync latency (goal "
          f"{results['split']['a_goal_ms']:.0f} ms)")
    print(f"{'scheduler':>9} {'mean ms':>8} {'p95 ms':>8} {'max ms':>9} {'A ops':>6}")
    for name, r in results.items():
        print(f"{name:>9} {r['a_mean_ms']:>8.1f} {r['a_p95_ms']:>8.1f} "
              f"{r['a_max_ms']:>9.1f} {r['a_count']:>6}")

    block, split = results["block"], results["split"]
    # Split-Deadline cuts the tail substantially (paper: ~4x).
    assert split["a_max_ms"] < block["a_max_ms"] / 2
    # A's latencies stay in the neighbourhood of the goal under split.
    assert split["a_p95_ms"] < 2.5 * split["a_goal_ms"]
