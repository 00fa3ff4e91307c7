"""Figure 25 (file-API tenants under reprofs) at reduced scale.

Pins the figure's claim: when a parquet-style scan and a random-read
dataset loader — both ordinary file-API code running through the
reprofs frontend — contend on one disk, Split-Token's rate contract on
the loader preserves the scan's solo bandwidth while CFQ round-robins
it away.  Also pins the runner contract (cells fanned out to workers
merge back to the inline result).
"""

import pytest

from repro.experiments import fig25_reprofs_tenants as fig25
from repro.experiments import runner
from repro.units import KB, MB

#: Small enough for a unit-test budget, long enough (12 scan passes)
#: to span many CFQ time slices — one pass fits inside a single slice
#: and would make CFQ look accidentally isolating.
SCALED = dict(
    scan_bytes=8 * MB,
    row_groups=4,
    columns=4,
    selected_columns=2,
    shards=4,
    shard_bytes=4 * MB,
    loader_threads=3,
    loader_chunk=128 * KB,
    loader_rate=2 * MB,
    memory_bytes=16 * MB,
    scan_passes=12,
)


@pytest.fixture(scope="module")
def result():
    return runner.run_experiment("fig25", SCALED).result


def test_split_token_retains_scan_bandwidth(result):
    retention = result["retention"]
    assert retention["split-token"] > 0.85, retention


def test_cfq_does_not_isolate(result):
    retention = result["retention"]
    assert retention["cfq"] < 0.7, retention
    assert retention["split-token"] > retention["cfq"] + 0.2


def test_loader_held_near_contract(result):
    by_sched = {p["scheduler"]: p for p in result["points"]}
    # CFQ gives the loader whatever it can grab; Split-Token holds it
    # around the 2 MB/s contract.
    assert by_sched["cfq"]["loader_mbps"] > 4.0
    assert by_sched["split-token"]["loader_mbps"] < 4.0


def test_cells_carry_serialized_configs():
    import json

    cells = fig25.cells(**SCALED)
    assert [label for label, _, _ in cells] == [
        "cfq/solo", "cfq/contended", "split-token/solo", "split-token/contended",
    ]
    for _label, func, kwargs in cells:
        assert func == "tenant_cell"
        assert isinstance(kwargs["config"], dict)  # to_dict payload, pool-safe
        json.dumps(kwargs["config"])  # must survive pickling boundaries


def test_serial_and_parallel_identical(result):
    # Worker processes rebuild stacks (and their reprofs tenants) from
    # serialized StackConfigs; the merged result must match inline.
    parallel = runner.run_experiment("fig25", SCALED, jobs=2)
    assert parallel.result["retention"] == pytest.approx(result["retention"])
