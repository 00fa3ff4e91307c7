"""Real-application models from the paper's §7 evaluation.

- :mod:`repro.apps.sqlite` — a WAL database with threshold-triggered
  checkpointing (§7.1.1);
- :mod:`repro.apps.postgres` — a TPC-B-like transaction engine with
  periodic checkpoints, driven pgbench-style (§7.1.2);
- :mod:`repro.apps.qemu` — virtual machines as nested storage stacks
  over a host file (§7.2).

The HDFS cluster of §7.3 is a fleet of full stacks on
:mod:`repro.sim.shard` (``ClusterConfig`` + ``run_cluster``).
"""

from repro.apps.sqlite import SQLiteDB
from repro.apps.postgres import Postgres, PgbenchResult
from repro.apps.qemu import QemuVM, FileBackedDevice

__all__ = [
    "FileBackedDevice",
    "PgbenchResult",
    "Postgres",
    "QemuVM",
    "SQLiteDB",
]
