"""Figure 1: write burst from an idle-priority process.

Paper: B's one-second random-write burst degrades A for >5 minutes
under CFQ (the idle class is useless for buffered writes); the split
stack keeps A fast.
"""

from repro.units import MB


def test_fig01_write_burst(figure):
    results = figure(
        "fig01",
        duration=60.0,
        burst_bytes=48 * MB,
        burst_at=10.0,
    )
    print("\nFigure 1 — reader throughput around an idle-class write burst")
    print(f"{'scheduler':>9} {'before MB/s':>12} {'after MB/s':>11} {'degradation':>12}")
    for name, r in results.items():
        print(f"{name:>9} {r['reader_before_mbps']:>12.1f} {r['reader_after_mbps']:>11.1f} "
              f"{r['degradation']:>11.1f}x")

    cfq, split = results["cfq"], results["split"]
    # CFQ: the burst visibly degrades the reader; split protects it.
    assert cfq["degradation"] > 1.7, "CFQ should be badly degraded by the burst"
    assert split["reader_after_mbps"] > 1.8 * cfq["reader_after_mbps"]
    assert split["degradation"] < 1.2
