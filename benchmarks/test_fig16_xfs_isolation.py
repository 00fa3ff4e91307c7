"""Figure 16: Split-Token isolation on partially-integrated XFS.

Paper: data-intensive isolation still holds (A's deviation 12.8 MB) —
generic buffer tagging alone covers data-dominated workloads.
"""

from repro.units import KB, MB

RUN_SIZES = (4 * KB, 64 * KB, 1 * MB, 16 * MB)


def test_fig16_xfs_isolation(figure):
    result = figure("fig16", run_sizes=RUN_SIZES, duration=15.0)

    print("\nFigure 16 — Split-Token on XFS (data-intensive)")
    print(f"{'B run size':>10} {'A | B reads':>12} {'A | B writes':>13}")
    for i, size in enumerate(result["run_sizes"]):
        print(f"{size // KB:>8}KB {result['a_mbps']['read'][i]:>11.1f} "
              f"{result['a_mbps']['write'][i]:>12.1f}")
    print(f"A stdev: {result['a_stdev_mb']:.1f} MB (paper: 12.8 MB)")

    assert result["a_stdev_mb"] < 16
