"""The benchmark's own tests: every workload at a tiny simulated duration.

Runs go through the same code path as the benchmark (one subprocess per
run).  Run from the repository root with::

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run as bench
import workloads

SPEC = bench.load_spec()
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
#: Simulated seconds per workload: long enough for every thread to
#: issue calls, short enough to keep the whole file well under a minute.
TINY = {"read_burst": 4.0, "fsync": 2.0, "direct_mq": 0.02, "many_tenants": 0.05}


def test_spec_matches_workloads_and_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)
    names = E2E + PER_LAYER
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def record(request):
    name = request.param
    return bench.measure(name, 1, E2E, seconds=0, trace=True, verify=True,
                         duration=TINY[name])


def test_record_schema_and_checks(record):
    assert record["failures"] == []
    assert record["failed"] == 0 and record["attempted"] > 0
    assert all(record["checks"].values())
    assert set(record["summary"]) == set(E2E)
    assert len(record["runs"]) == bench.MIN_REPS
    assert all(record["summary"][m]["median"] > 0 for m in E2E)
    assert set(record["per_layer"]) == set(PER_LAYER)


def test_repeats_traced_and_sanitized_runs_agree(record):
    assert len(record["digest"]) == 64
    assert record["traced_digest"] == record["digest"]
    assert record["sanitized_digest"] == record["digest"]


def test_layer_shares_sum_to_one(record):
    import layers

    shares = [record["per_layer"][f"{layer}.share"] for layer in layers.LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert record["per_layer"]["sim.self_s"] > 0


def test_contract_result_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "direct_mq", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--duration", "0.02"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }


def test_seed_changes_inputs():
    digests = {bench.spawn("direct_mq", seed, "plain", TINY["direct_mq"])["digest"]
               for seed in (1, 2)}
    assert len(digests) == 2


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(bench.SPEC_FILE, tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fsync", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("base, change, expected", [
    ([10.0, 10.1, 10.2], [10.0, 10.1, 10.2], "unchanged"),
    ([10.0, 10.1, 10.2], [12.0, 12.1, 12.2], "worse"),
    ([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], "improved"),
    ([10.0, 14.0, 18.0, 6.0], [10.0, 10.1, 10.2], "unresolved"),
    ([10.0, 14.0, 18.0, 16.0], [5.0, 5.1, 5.2], "improved"),
])
def test_verdicts(base, change, expected):
    assert bench.verdict(base, change, 0.1, "lower")["verdict"] == expected


def test_crashed_run_is_charged_a_good_runs_ops():
    good = dict({m: 1.0 for m in E2E}, ops=100, checks={"ok": True}, digest="d", params={},
                fg_samples=5)
    crashed = {"error": f"run timed out after {bench.REP_TIMEOUT_S} s"}
    rec = bench.summarize("w", 1, E2E, [good, crashed], {})
    assert (rec["attempted"], rec["failed"]) == (200, 100)
    alone = bench.summarize("w", 1, E2E, [crashed], {})
    assert (alone["attempted"], alone["failed"]) == (1, 1)


def _side(scale=1.0, digest="d1", failures=(), missing=False):
    """A run record with one workload whose every metric reads *scale*."""
    runs = [{m: scale * (1 + i / 1000) for m in E2E} for i in range(3)]
    rec = {"runs": [] if missing else runs, "digest": digest, "attempted": 30,
           "failed": 10 * len(failures), "failures": list(failures)}
    return {"workloads": {"w": rec}}


@pytest.mark.parametrize("change, status", [
    (_side(), 0),
    (_side(scale=2.0), 1),
    (_side(digest="d2"), 1),
    (_side(failures=["run 1: check full_length_transfers failed"]), 1),
    (_side(missing=True), 1),
    ({"workloads": {}}, 1),
])
def test_compare_fails_broken_or_worse_changes(tmp_path, capsys, change, status):
    paths = [tmp_path / "parent.json", tmp_path / "change.json"]
    for path, side in zip(paths, (_side(), change)):
        path.write_text(json.dumps(side))
    assert bench.compare(str(paths[0]), str(paths[1]), SPEC) == status
    assert "w " in capsys.readouterr().out
