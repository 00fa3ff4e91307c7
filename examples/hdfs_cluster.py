#!/usr/bin/env python
"""Distributed isolation: an HDFS-like cluster over local Split-Token.

Seven workers, 3× replication.  A throttled account and an unthrottled
account each run four writers; the throttled account is capped at a
per-worker rate, and the cluster-level effect (including the lost
tokens from block-placement imbalance, and the improvement from a
smaller block size) is printed — the paper's Figure 21 in miniature.

Each point is one cell of Figure 21 (:func:`run_cell`), run on the
cluster model of :mod:`repro.sim.shard`.  The script exits non-zero
unless 16 MB blocks bring the throttled tenant closer to its bound
than 64 MB blocks at every cap.

Run:  python examples/hdfs_cluster.py
"""

import sys

from repro import MB
from repro.experiments.fig21_hdfs import run_cell

BLOCK_SIZES = (64 * MB, 16 * MB)
RATE_CAPS = (8 * MB, 16 * MB)


def main():
    print(f"{'block':>7} {'cap/node':>9} {'throttled':>10} {'bound':>7} "
          f"{'util':>5} {'unthrottled':>12}")
    util = {}
    for block_size in BLOCK_SIZES:
        for rate_cap in RATE_CAPS:
            r = run_cell(rate_cap, block_size=block_size)
            util[block_size, rate_cap] = r["bound_utilization"]
            print(f"{block_size // MB:>5}MB {rate_cap / MB:>7.0f}MB "
                  f"{r['throttled_mbps']:>8.1f}MB {r['upper_bound_mbps']:>6.1f}MB "
                  f"{r['bound_utilization']:>5.0%} {r['unthrottled_mbps']:>10.1f}MB")
    print("\nSmaller blocks spread load better, so fewer tokens go unused")
    print("and the throttled tenant gets closer to its (cap/3)*7 bound.")
    large, small = BLOCK_SIZES
    return all(util[small, cap] > util[large, cap] for cap in RATE_CAPS)


if __name__ == "__main__":
    if not main():
        sys.exit("16 MB blocks did not beat 64 MB blocks at every cap")
