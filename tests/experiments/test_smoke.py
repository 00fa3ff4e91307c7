"""Tiny-scale smoke tests: every experiment module runs end to end.

These use drastically reduced durations/sizes — they check plumbing
(the benchmarks check the paper's findings at full scale).
"""

import pytest

from repro.units import KB, MB


def test_fig01_smoke():
    from repro.experiments import fig01_write_burst

    result = fig01_write_burst.run(
        "cfq", duration=6.0, burst_bytes=4 * MB, burst_at=2.0,
        reader_file=16 * MB, memory_bytes=32 * MB,
    )
    assert result["reader_before_mbps"] > 0
    assert len(result["series_t"]) > 0


def test_fig03_smoke():
    from repro.experiments import fig03_cfq_writeback

    result = fig03_cfq_writeback.run(duration=4.0, memory_bytes=128 * MB)
    assert set(result["throughput_mbps"]) == set(range(8))
    assert abs(sum(result["submitter_priority_share"].values()) - 1.0) < 1e-6


def test_fig05_smoke():
    from repro.experiments import fig05_latency_dependency

    result = fig05_latency_dependency.run(sizes=(16 * KB, 256 * KB), duration=4.0, b_file=8 * MB)
    assert len(result["mean_ms"]) == 2
    assert all(m > 0 for m in result["mean_ms"])


def test_fig09_smoke():
    from repro.experiments import fig09_time_overhead

    result = fig09_time_overhead.run(thread_counts=(1, 4), duration=1.0)
    assert len(result["block_mbps"]) == 2
    assert all(rate > 0 for rate in result["block_mbps"])


def test_fig10_smoke():
    from repro.experiments import fig10_space_overhead

    result = fig10_space_overhead.run(dirty_ratios=(0.1, 0.3), duration=4.0,
                                      writers=2, memory_bytes=128 * MB)
    assert len(result["max_overhead_mb"]) == 2
    assert all(m > 0 for m in result["max_overhead_mb"])


@pytest.mark.parametrize("panel", ["read", "async_write", "memory"])
def test_fig11_smoke(panel):
    from repro.experiments import fig11_afq_priority

    result = fig11_afq_priority.run(panel, "afq", duration=2.0)
    assert result["total_mbps"] > 0


def test_fig12_smoke():
    from repro.experiments import fig12_fsync_isolation

    result = fig12_fsync_isolation.run("split", device="ssd", duration=4.0, b_file=8 * MB)
    assert result["a_count"] > 0
    assert result["a_mean_ms"] > 0


def test_isolation_cell_smoke():
    from repro.experiments.isolation import run_pair

    cell = run_pair("split", "write-mem", 1 * MB, duration=2.0,
                    a_file=8 * MB, b_file=16 * MB, memory_bytes=128 * MB)
    assert cell["a_mbps"] > 0
    assert cell["b_mbps"] > 0


def test_fig17_smoke():
    from repro.experiments import fig17_metadata

    cell = fig17_metadata.run_cell("ext4", sleep=0.01, duration=2.0)
    assert cell["a_mbps"] > 0


def test_fig18_smoke():
    from repro.experiments import fig18_sqlite

    cell = fig18_sqlite.run_cell("split", threshold=50, duration=4.0,
                                 table_bytes=8 * MB, device="ssd")
    assert cell["transactions"] > 0


def test_fig19_smoke():
    from repro.experiments import fig19_postgres

    result = fig19_postgres.run_config("block", duration=4.0, checkpoint_interval=2.0,
                                       table_bytes=8 * MB, workers=2, rate_per_worker=50)
    assert result["transactions"] > 0


def test_fig21_smoke():
    from repro.experiments import fig21_hdfs

    cell = fig21_hdfs.run_cell(4 * MB, block_size=8 * MB, duration=4.0,
                               workers=4, writers_per_group=1)
    assert cell["throttled_mbps"] >= 0
    assert cell["unthrottled_mbps"] > 0


def test_registry_modules_importable():
    """Every registered module is runnable by the runner: it declares
    ``cells()`` + ``merge()`` or else one ``run()``, and every cell it
    declares at default overrides names a function that accepts the
    cell's arguments (resolved and bound, never run)."""
    import importlib
    import inspect

    from repro.experiments import EXPERIMENTS, runner

    for key, (module_name, title) in EXPERIMENTS.items():
        module = importlib.import_module(module_name)
        assert title
        if hasattr(module, "cells"):
            assert callable(getattr(module, "merge", None)), f"{key} has cells() but no merge()"
        else:
            assert callable(getattr(module, "run", None)), f"{key} lacks cells() and run()"
        cells = runner.experiment_cells(key)
        assert cells, f"{key} declares no cells"
        for cell in cells:
            func = runner.cell_function(cell.module, cell.func)
            inspect.signature(func).bind(**cell.kwargs)
