"""Figure 14's merge: headline ratios only for workloads that were run."""

from repro.experiments import fig14_split_vs_scs as fig14
from repro.experiments.isolation import SIX_WORKLOADS


def _cell(a_mbps, b_mbps):
    return {"a_mbps": a_mbps, "b_mbps": b_mbps}


def test_merge_one_workload_reports_only_its_ratio():
    pairs = [("scs/read-mem", _cell(1.0, 2.0)), ("split/read-mem", _cell(1.0, 5.0))]
    merged = fig14.merge(pairs, workloads=["read-mem"])
    assert merged["workloads"] == ["read-mem"]
    assert merged["scs_b_mbps"] == [2.0]
    assert merged["split_b_mbps"] == [5.0]
    assert merged["read_mem_speedup"] == 2.5
    assert "write_mem_speedup" not in merged


def test_merge_default_workloads_keeps_both_ratios_last():
    pairs = [
        (f"{kind}/{workload}", _cell(1.0, 4.0 if kind == "split" else 2.0))
        for kind in ("scs", "split")
        for workload in SIX_WORKLOADS
    ]
    merged = fig14.merge(pairs)
    assert list(merged)[-2:] == ["read_mem_speedup", "write_mem_speedup"]
    assert merged["read_mem_speedup"] == merged["write_mem_speedup"] == 2.0
