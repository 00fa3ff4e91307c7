"""Figure 13: Split-Token isolation on ext4.

Paper: A's standard deviation across B's workloads drops to ~7 MB,
about 6x better than SCS-Token's 41 MB.
"""

from repro.experiments.runner import run_experiments
from repro.units import KB, MB

RUN_SIZES = (4 * KB, 64 * KB, 1 * MB, 16 * MB)


def test_fig13_split_token_ext4(once):
    overrides = {"run_sizes": RUN_SIZES, "duration": 15.0}
    outcomes = once(run_experiments, [("fig06", overrides), ("fig13", overrides)])
    scs, split = outcomes["fig06"].result, outcomes["fig13"].result

    print("\nFigure 13 — Split-Token isolation (vs Figure 6's SCS)")
    print(f"{'B run size':>10} {'A | B reads':>12} {'A | B writes':>13}")
    for i, size in enumerate(split["run_sizes"]):
        print(f"{size // KB:>8}KB {split['a_mbps']['read'][i]:>11.1f} "
              f"{split['a_mbps']['write'][i]:>12.1f}")
    print(f"A stdev: split {split['a_stdev_mb']:.1f} MB vs SCS {scs['a_stdev_mb']:.1f} MB "
          "(paper: 7 vs 41)")

    # Split-Token's spread is several times smaller than SCS's.
    assert split["a_stdev_mb"] < scs["a_stdev_mb"] / 2.5
    assert split["a_stdev_mb"] < 15
