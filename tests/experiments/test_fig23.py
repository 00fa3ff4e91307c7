"""Figure 23 (hedged dispatch under fail-slow) at reduced scale.

Pins the figure's three claims: hedging cuts fail-slow tail latency
hard at depth >= 4, it is provably inert at depth 1 (byte-identical
latencies, zero hedges), and Split-Token isolation holds whether the
device is healthy or fail-slow.
"""

import json

import pytest

from repro.cli import _jsonable
from repro.experiments import runner

#: Reduced sweep: the two severity extremes, depth 1 vs 4, a short
#: window.  Severity 32 on one of ten channels is the paper-style
#: "one sick flash channel" case fig23 plots.
SCALED = dict(
    severities=[1, 32],
    depths=[1, 4],
    threads=8,
    duration=1.0,
    isolation_duration=2.0,
)


@pytest.fixture(scope="module")
def result():
    return runner.run_experiment("fig23", SCALED).result


def test_hedging_cuts_failslow_p99_at_depth(result):
    depth4 = result["latency"][4]
    unhedged_p99 = depth4["unhedged"]["p99"][1]  # severity 32
    hedged_p99 = depth4["hedged"]["p99"][1]
    assert hedged_p99 <= unhedged_p99 / 2.0, (
        f"hedging must at least halve fail-slow p99 at depth 4 "
        f"({unhedged_p99=} {hedged_p99=})"
    )
    assert depth4["hedged"]["hedge_wins"][1] > 0


def test_hedging_near_free_when_healthy(result):
    depth4 = result["latency"][4]
    unhedged_p99 = depth4["unhedged"]["p99"][0]  # severity 1
    hedged_p99 = depth4["hedged"]["p99"][0]
    assert hedged_p99 <= unhedged_p99 * 1.25, (
        "hedging on a healthy device must not cost meaningful p99"
    )


def test_depth1_hedge_is_byte_identical(result):
    depth1 = result["latency"][1]
    assert depth1["unhedged"]["p99"] == depth1["hedged"]["p99"]
    assert depth1["unhedged"]["p50"] == depth1["hedged"]["p50"]
    assert depth1["hedged"]["hedges_issued"] == [0, 0]


def test_monitor_reports_health_fields(result):
    """Hedged cells carry the monitor's verdict.  A fault present from
    t=0 yields degradation ~1.0 by design — the baseline learns the
    degraded mix, so there is no *onset* to flag — while the p95
    deadline (which drives the hedging itself) still exposes the slow
    tail; onset detection is pinned in tests/health/test_monitor.py."""
    sick = result["latency"][4]["hedged"]["cells"][1]
    assert sick["health_state"] in ("healthy", "degraded", "failed")
    assert sick["degradation"] >= 1.0
    assert sick["hedges_issued"] > 0
    healthy = result["latency"][4]["hedged"]["cells"][0]
    assert healthy["health_state"] == "healthy"


def test_isolation_immune_to_failslow(result):
    iso = result["isolation"]
    assert iso["failslow"]["b_mbps"] == pytest.approx(
        iso["healthy"]["b_mbps"], rel=0.01
    ), "Split-Token must re-price against degraded throughput, not collapse"


def test_serial_and_parallel_identical():
    scaled = dict(SCALED, threads=4, duration=0.5, isolation_duration=1.0)
    serial = runner.run_experiment("fig23", scaled, jobs=1)
    parallel = runner.run_experiment("fig23", scaled, jobs=2)
    fingerprint = lambda o: json.dumps(_jsonable(o.result), sort_keys=True)  # noqa: E731
    assert fingerprint(serial) == fingerprint(parallel)
