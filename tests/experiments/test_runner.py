"""Parallel experiment runner: determinism and plumbing.

The runner's contract is that fanning an experiment's cells across
worker processes changes wall-clock time and nothing else: the merged
result (and any fault summaries) must be byte-identical to a serial
run.  These tests pin that contract at reduced simulation scale.
"""

import json

import pytest

from repro.cli import _jsonable
from repro.experiments import common, runner
from repro.faults import FaultPlan
from repro.units import KB, MB

#: Reduced-scale overrides per experiment: big enough to exercise real
#: scheduling, small enough for a unit-test budget.
SCALED = {
    "fig01": {"duration": 8.0, "burst_at": 2.0, "burst_bytes": 16 * MB,
              "reader_file": 48 * MB},
    "fig13": {"run_sizes": [16 * KB, 1 * MB], "duration": 2.0},
    "fig17": {"sleeps": [0.0, 0.008], "duration": 2.0},
}


def _fingerprint(outcome) -> str:
    return json.dumps(
        {"result": _jsonable(outcome.result), "faults": _jsonable(outcome.faults)},
        sort_keys=True,
    )


@pytest.mark.parametrize("key", sorted(SCALED))
def test_serial_and_parallel_results_identical(key):
    serial = runner.run_experiment(key, SCALED[key], jobs=1)
    parallel = runner.run_experiment(key, SCALED[key], jobs=4)
    assert _fingerprint(serial) == _fingerprint(parallel)


def test_parallel_fault_summaries_match_serial():
    plan = FaultPlan(read_error_prob=0.02)
    overrides = {"duration": 2.0}
    with common.using(fault=(plan, 7)):
        serial = runner.run_experiment("fig12", overrides, jobs=1)
        parallel = runner.run_experiment("fig12", overrides, jobs=2)
    assert serial.faults, "fault plan should produce summaries"
    assert _fingerprint(serial) == _fingerprint(parallel)


def test_runner_reads_the_session_and_never_writes_it():
    """An inline run leaves the caller's session exactly as it found it,
    and pool workers run under that same session."""
    with common.using(sanitize=True, queue_depth=4):
        before = common.session()
        serial = runner.run_experiment("fig13", SCALED["fig13"], jobs=1)
        assert common.session() == before
        parallel = runner.run_experiment("fig13", SCALED["fig13"], jobs=2)
        assert common.session() == before
    assert _fingerprint(serial) == _fingerprint(parallel)


def test_unknown_experiment_raises():
    with pytest.raises(ValueError, match="unknown experiment"):
        runner.run_experiment("fig99")


def test_failed_cell_leaks_no_faults_or_spans():
    """A cell that raises after building a fault-injected, traced stack
    must not hand that stack's summary or spans to the next run."""
    with common.using(fault=(FaultPlan(read_error_prob=0.001), 0), trace=True):
        clean = runner.run_experiment("fig03", {"duration": 1.0})
        with pytest.raises(ValueError, match="unknown workload"):
            runner.run_experiment("fig14", {"workloads": ["bogus"], "duration": 0.5})
        after = runner.run_experiment("fig03", {"duration": 1.0})
    assert len(after.faults) == 1
    assert _fingerprint(after) == _fingerprint(clean)
    assert after.spans == clean.spans


def test_direct_cell_call_leaks_no_faults_into_the_next_run():
    """A stack built by calling a cell function directly under a fault
    plan must not hand its summary to the next runner call."""
    from repro.experiments import fig03_cfq_writeback

    with common.using(fault=(FaultPlan(read_error_prob=0.001), 0)):
        fig03_cfq_writeback.run(duration=1.0)
        after = runner.run_experiment("fig03", {"duration": 1.0})
    assert len(after.faults) == 1


def test_cells_fallback_for_module_without_cells():
    """Experiments that expose no cells() degrade to a single cell."""
    cells = runner.experiment_cells("fig03", {"duration": 1.0})
    assert len(cells) == 1
    assert cells[0].experiment == "fig03"


def test_call_cell_resolves_local_and_colon_paths():
    from repro.devices import HDD, SSD

    local = runner.call_cell("repro.experiments.common", "make_device", {"kind": "hdd"})
    assert isinstance(local, HDD)
    remote = runner.call_cell(
        "repro.experiments.fig13_split_token_ext4",
        "repro.experiments.common:make_device",
        {"kind": "ssd"},
    )
    assert isinstance(remote, SSD)
