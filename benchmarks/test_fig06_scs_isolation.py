"""Figure 6: SCS-Token fails to isolate A from B's I/O pattern.

Paper: A's throughput standard deviation across B's 14 run-size
workloads is ~41 MB; B's buffered writes barely affect A while B's
disk reads crush it.
"""

from repro.units import KB, MB

RUN_SIZES = (4 * KB, 64 * KB, 1 * MB, 16 * MB)


def test_fig06_scs_isolation(figure):
    result = figure("fig06", run_sizes=RUN_SIZES, duration=15.0)

    print("\nFigure 6 — A's throughput while B (throttled 10 MB/s) varies")
    print(f"{'B run size':>10} {'A | B reads':>12} {'A | B writes':>13}")
    for i, size in enumerate(result["run_sizes"]):
        print(f"{size // KB:>8}KB {result['a_mbps']['read'][i]:>11.1f} "
              f"{result['a_mbps']['write'][i]:>12.1f}")
    print(f"A stdev: {result['a_stdev_mb']:.1f} MB (paper: ~41 MB)")

    # SCS is NOT isolating: large spread in A's throughput.
    assert result["a_stdev_mb"] > 15
    # Writes look cheap (buffered); reads hurt.
    assert min(result["a_mbps"]["write"]) > max(result["a_mbps"]["read"])
