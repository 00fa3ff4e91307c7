"""Figure 17: metadata-heavy workload on ext4 (full) vs XFS (partial).

Paper: with ext4, B's creat+fsync storm is correctly throttled and A
is isolated regardless of B's sleep time.  With XFS, the journal I/O
is unattributable, B escapes its limit, and A's throughput tracks B's
create rate.
"""


def test_fig17_metadata(figure):
    result = figure("fig17", duration=10.0)

    print("\nFigure 17 — reader A vs metadata-storm B (throttled)")
    print(f"{'sleep ms':>8} {'ext4 A':>8} {'xfs A':>8} {'ext4 B cr/s':>12} {'xfs B cr/s':>11}")
    for i, sleep in enumerate(result["sleeps_ms"]):
        print(f"{sleep:>8.0f} {result['ext4_a_mbps'][i]:>8.1f} {result['xfs_a_mbps'][i]:>8.1f} "
              f"{result['ext4_creates_per_sec'][i]:>12.1f} {result['xfs_creates_per_sec'][i]:>11.1f}")

    # ext4 isolates A at every sleep setting; XFS does not (at sleep 0).
    assert min(result["ext4_a_mbps"]) > 0.85 * max(result["ext4_a_mbps"])
    assert result["xfs_a_mbps"][0] < 0.7 * result["ext4_a_mbps"][0]
    # Because ext4 throttles B's creates and XFS lets them through.
    assert result["xfs_creates_per_sec"][0] > 5 * result["ext4_creates_per_sec"][0]
