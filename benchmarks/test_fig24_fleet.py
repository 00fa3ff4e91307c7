"""Figure 24: fleet-scale tenant isolation under sharded simulation.

Claim: Split-Token enforcement is purely local, so the spread of
per-tenant throughput (the isolation metric, as a coefficient of
variation) stays flat as the fleet grows — no coordination penalty at
scale.  The reduced sweep here keeps the same shape as the paper-scale
one (8→64 DataNodes, up to 1024 streams) at CI-friendly size.
"""

from repro.units import MB

FLEET_SIZES = (8, 16, 24)


def test_fig24_fleet(figure):
    result = figure(
        "fig24",
        fleet_sizes=FLEET_SIZES,
        tenants_count=8,
        rate_per_node=2 * MB,
        duration=1.0,
        shards=4,
    )

    print("\nFigure 24 — tenant isolation vs fleet size (sharded runs)")
    print(f"{'nodes':>6} {'streams':>8} {'shards':>7} {'mean':>8} {'cv':>7} "
          f"{'p99(ms)':>8}")
    for point in result["points"]:
        print(f"{point['nodes']:>6} {point['streams']:>8} {point['shards']:>7} "
              f"{point['tenant_mean_mbps']:>7.1f} {point['isolation_cv']:>7.3f} "
              f"{point['chunk_p99_ms']:>8.1f}")

    points = result["points"]
    # Every fleet size actually carried traffic for every tenant.
    for point in points:
        assert point["tenant_mean_mbps"] > 0
    # Isolation: per-tenant throughput spread stays tight at every
    # fleet size — local enforcement has no scale penalty.  (Very small
    # fleets are excluded: with only a handful of nodes, random block
    # placement is lumpy and the spread reflects placement noise, not
    # the scheduler.)
    for point in points:
        assert point["isolation_cv"] < 0.20
    # ... and the spread does not widen as the fleet grows.
    assert points[-1]["isolation_cv"] <= points[0]["isolation_cv"] + 0.10
