"""Figure 15: Split-Token scalability with B's thread count.

Paper: A's throughput is steady regardless of B's thread count for
disk workloads; memory-bound B threads (and a pure spin loop) slow A
through the CPU once there are enough of them — I/O scheduling cannot
fix CPU interference.
"""

THREADS = (1, 32, 256)


def test_fig15_scalability(figure):
    result = figure("fig15", thread_counts=THREADS, duration=6.0, cores=2)

    print("\nFigure 15 — A's MB/s vs B thread count")
    header = " ".join(f"{t:>7}" for t in result["threads"])
    print(f"{'workload':>10} {header}")
    for workload in ("read-seq", "read-mem", "write-mem", "spin"):
        row = " ".join(f"{v:>7.1f}" for v in result[workload])
        print(f"{workload:>10} {row}")

    # Disk workload: flat within 15% across thread counts.
    seq = result["read-seq"]
    assert max(seq) < 1.15 * min(seq)

    # CPU-bound B hurts A even with perfect I/O throttling; a pure spin
    # loop (no I/O at all) hurts most — the paper's closing point that
    # CPU schedulers are still needed.
    for workload in ("read-mem", "write-mem"):
        series = result[workload]
        assert series[-1] < 0.95 * series[0], f"{workload} should degrade A at scale"
    spin = result["spin"]
    assert spin[-1] < 0.4 * spin[0]
