"""Experiment drivers: one module per figure/table of the paper.

Every module declares its figure either as ``cells()`` + ``merge()``
or as one ``run(...)``, returning a plain dict of results
(JSON-friendly), with parameters defaulting to the scaled-down
simulation equivalents of the paper's setup; either way it runs
through :func:`repro.experiments.runner.run_experiment`.  The
benchmark suite under ``benchmarks/`` executes them at full scale and
prints the same rows/series the paper reports; the test suite runs
them at reduced scale and asserts the paper's qualitative findings
(who wins, rough factors, crossovers).
"""

from repro.experiments import common

__all__ = ["common"]

#: Experiment registry: id -> (module name, paper artefact).
EXPERIMENTS = {
    "fig01": ("repro.experiments.fig01_write_burst", "Figure 1: write burst vs idle class"),
    "fig03": ("repro.experiments.fig03_cfq_writeback", "Figure 3: CFQ priority inversion via writeback"),
    "fig05": ("repro.experiments.fig05_latency_dependency", "Figure 5: fsync latency dependencies"),
    "fig06": ("repro.experiments.fig06_scs_isolation", "Figure 6: SCS-Token isolation failure"),
    "fig09": ("repro.experiments.fig09_time_overhead", "Figure 9: framework time overhead"),
    "fig10": ("repro.experiments.fig10_space_overhead", "Figure 10: tag memory overhead"),
    "fig11": ("repro.experiments.fig11_afq_priority", "Figure 11: AFQ vs CFQ priorities"),
    "fig12": ("repro.experiments.fig12_fsync_isolation", "Figure 12: fsync latency isolation"),
    "fig13": ("repro.experiments.fig13_split_token_ext4", "Figure 13: Split-Token isolation (ext4)"),
    "fig14": ("repro.experiments.fig14_split_vs_scs", "Figure 14: Split-Token vs SCS-Token"),
    "fig15": ("repro.experiments.fig15_scalability", "Figure 15: Split-Token scalability"),
    "fig16": ("repro.experiments.fig16_xfs_isolation", "Figure 16: Split-Token isolation (XFS)"),
    "fig17": ("repro.experiments.fig17_metadata", "Figure 17: metadata workloads, XFS vs ext4"),
    "fig18": ("repro.experiments.fig18_sqlite", "Figure 18: SQLite transaction tails"),
    "fig19": ("repro.experiments.fig19_postgres", "Figure 19: PostgreSQL latency CDF"),
    "fig20": ("repro.experiments.fig20_qemu", "Figure 20: QEMU isolation"),
    "fig21": ("repro.experiments.fig21_hdfs", "Figure 21: HDFS isolation"),
    "fig22": ("repro.experiments.fig22_queue_depth", "Figure 22: multi-queue dispatch vs depth"),
    "fig23": ("repro.experiments.fig23_fail_slow", "Figure 23: hedged dispatch under fail-slow"),
    "fig24": ("repro.experiments.fig24_fleet", "Figure 24: fleet-scale isolation (sharded)"),
    "fig25": ("repro.experiments.fig25_reprofs_tenants", "Figure 25: file-API tenants under reprofs"),
    "tab1": ("repro.experiments.tab1_properties", "Table 1: framework properties"),
}
