"""Figure 22 (multi-queue dispatch sweep) at reduced scale.

Pins the two claims the figure makes — deeper tagged queuing scales
random-read throughput on the SSD, and Split-Token isolation is
depth-invariant — plus the runner contract that fanning the sweep's
cells (whose configs carry ``queue_depth > 1``) across worker
processes changes nothing.
"""

import json

import pytest

from repro.cli import _jsonable
from repro.experiments import fig22_queue_depth as fig22
from repro.experiments import runner

#: Small enough for a unit-test budget, big enough that depth 32 keeps
#: all ten SSD channels busy.
SCALED = dict(
    depths=[1, 32],
    threads=16,
    duration=0.3,
    isolation_duration=1.0,
)


@pytest.fixture(scope="module")
def result():
    return runner.run_experiment("fig22", SCALED).result


def test_depth_scales_throughput(result):
    t1, t32 = result["throughput_mbps"]
    assert result["depths"] == [1, 32]
    assert result["nslots"] == [1, 10]  # 32 tags cap at 10 channels
    assert t32 > 1.5 * t1, f"depth 32 should scale well past depth 1 ({t1=} {t32=})"
    assert result["scaling"][0] == 1.0


def test_isolation_holds_at_every_depth(result):
    iso = result["isolation"]
    # The throttled writer's rate must not depend on dispatch depth:
    # depth-aware service_charge keeps token accounting exact when
    # service windows overlap.
    b1, b32 = iso["b_mbps"]
    assert b1 == pytest.approx(b32, rel=0.01)
    a1, a32 = iso["a_mbps"]
    assert a1 > iso["b_target_mbps"], "A must run far above B's cap"
    assert a32 == pytest.approx(a1, rel=0.01)


def test_serial_and_parallel_identical_at_depth(result):
    """Worker processes rebuild depth>1 stacks from serialized
    StackConfigs; the merged JSON must match a serial run byte for
    byte."""
    parallel = runner.run_experiment("fig22", SCALED, jobs=2)
    fingerprint = lambda r: json.dumps(_jsonable(r), sort_keys=True)  # noqa: E731
    assert fingerprint(result) == fingerprint(parallel.result)


def test_cells_carry_serialized_configs():
    cell_list = fig22.cells(**SCALED)
    assert len(cell_list) == 4  # throughput + isolation per depth
    for _label, _func, kwargs in cell_list:
        config = kwargs["config"]
        assert isinstance(config, dict)  # to_dict payload, pool-safe
        json.dumps(config)  # must survive pickling boundaries as JSON
    depths = [c[2]["config"]["queue_depth"] for c in cell_list]
    assert depths == [1, 32, 1, 32]
