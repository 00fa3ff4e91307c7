"""Tests for the result-file writer behind ``run-all --out``."""

import json

from repro.experiments import runner
from repro.experiments.export import write_results

#: fig09 at unit-test scale.
FIG09 = {"thread_counts": [1], "duration": 0.5}


def test_write_results_payload_keys(tmp_path):
    outcome = runner.run_experiment("fig09", FIG09)
    write_results(tmp_path, {"fig09": outcome})
    data = json.loads((tmp_path / "fig09.json").read_text())
    assert list(data) == ["experiment", "title", "wall_seconds", "result"]
    assert data["experiment"] == "fig09"
    assert data["wall_seconds"] == round(outcome.seconds, 1)
    assert data["wall_seconds"] >= 0
    assert data["result"]["threads"] == [1]


def test_write_results_writes_json_and_report(tmp_path):
    outcome = runner.run_experiment("fig09", FIG09)
    written = write_results(tmp_path, {"fig09": outcome})
    assert written == {"fig09": str(tmp_path / "fig09.json")}
    data = json.loads((tmp_path / "fig09.json").read_text())
    assert data["title"].startswith("Figure 9")
    report = (tmp_path / "REPORT.md").read_text().splitlines()
    assert report == [
        "# Reproduction run",
        "",
        f"- **fig09** — {data['title']} ({data['wall_seconds']}s) -> `fig09.json`",
    ]
