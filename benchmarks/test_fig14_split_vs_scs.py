"""Figure 14: Split-Token vs SCS-Token, six B workloads.

Paper: Split is near the isolation target all six times; SCS misses
badly on random patterns.  For B itself, Split is 2.3x faster on
"read-mem" and ~837x on "write-mem" (SCS bills cache hits and buffer
overwrites as if they were disk I/O).
"""


def test_fig14_split_vs_scs(figure):
    result = figure("fig14", duration=10.0)

    print("\nFigure 14 — A isolation (left) and B throughput (right)")
    print(f"{'B workload':>11} | {'A scs':>7} {'A split':>8} | {'B scs':>8} {'B split':>9}")
    for i, workload in enumerate(result["workloads"]):
        print(f"{workload:>11} | {result['scs_a_mbps'][i]:>7.1f} "
              f"{result['split_a_mbps'][i]:>8.1f} | {result['scs_b_mbps'][i]:>8.2f} "
              f"{result['split_b_mbps'][i]:>9.2f}")
    print(f"B speedups under split: read-mem {result['read_mem_speedup']:.1f}x, "
          f"write-mem {result['write_mem_speedup']:.0f}x (paper: 2.3x, 837x)")

    # Split isolates A better than SCS across the workloads.
    import statistics

    scs_spread = statistics.pstdev(result["scs_a_mbps"])
    split_spread = statistics.pstdev(result["split_a_mbps"])
    assert split_spread < scs_spread

    # Memory-bound B workloads are dramatically faster under split.
    assert result["read_mem_speedup"] > 1.5
    assert result["write_mem_speedup"] > 50
