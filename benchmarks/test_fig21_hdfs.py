"""Figure 21: HDFS isolation through local Split-Token schedulers.

Paper: lowering the throttled group's per-worker cap gives the
unthrottled group more throughput; the throttled group's total falls
short of the (cap/3)x7 upper bound because of block-placement load
imbalance, and a 16 MB block size closes most of the gap vs 64 MB.
"""

from repro.units import MB

RATE_CAPS = (8 * MB, 64 * MB)


def test_fig21_hdfs(figure):
    result = figure(
        "fig21",
        rate_caps=RATE_CAPS,
        block_sizes=(64 * MB, 16 * MB),
        duration=15.0,
    )

    print("\nFigure 21 — HDFS throttled/unthrottled group throughput")
    print(f"{'block':>7} {'cap':>6} {'throttled':>10} {'bound':>7} {'util':>6} "
          f"{'unthrottled':>12}")
    for key in ("block_64mb", "block_16mb"):
        for cell in result[key]:
            print(f"{cell['block_size_mb']:>5.0f}MB {cell['rate_cap_mb']:>4.0f}MB "
                  f"{cell['throttled_mbps']:>9.1f} {cell['upper_bound_mbps']:>6.1f} "
                  f"{cell['bound_utilization']:>6.1%} {cell['unthrottled_mbps']:>11.1f}")

    big, small = result["block_64mb"], result["block_16mb"]
    # Tighter caps on the throttled group help the unthrottled group.
    assert big[0]["unthrottled_mbps"] > big[-1]["unthrottled_mbps"] * 0.95
    # The throttled group respects (stays under) its upper bound.
    for cell in big + small:
        assert cell["throttled_mbps"] <= cell["upper_bound_mbps"] * 1.1
    # Smaller blocks balance load better: higher bound utilization.
    for i in range(len(RATE_CAPS)):
        assert small[i]["bound_utilization"] >= big[i]["bound_utilization"] * 0.95
