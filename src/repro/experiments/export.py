"""Batch export: regenerate experiments and write JSON + a report.

Drives the same ``run()`` entry points as the benchmark suite, but
writes machine-readable results (one JSON file per experiment) plus a
markdown summary — the artefact you would attach to a reproduction
report.

    from repro.experiments.export import export_all
    export_all("results/", only=["fig03", "tab1"], overrides={"fig03": {"duration": 10}})

Pass ``jobs=N`` to fan each experiment's independent cells across
worker processes (see :mod:`repro.experiments.runner`); the written
results are byte-identical to a sequential export.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

from repro.experiments import EXPERIMENTS


def _jsonable(value: Any) -> Any:
    """Coerce experiment results into JSON-friendly structures."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return repr(value)


def _payload(key: str, outcome: Any) -> Dict[str, Any]:
    """The ``<key>.json`` body for a finished experiment *outcome* (a
    :class:`~repro.experiments.runner.ExperimentResult`).

    ``wall_seconds`` is the summed cell time (the serial-equivalent
    cost), so the recorded payload does not depend on ``jobs``.
    """
    return {
        "experiment": key,
        "title": EXPERIMENTS[key][1],
        "wall_seconds": round(outcome.seconds, 1),
        "result": _jsonable(outcome.result),
    }


def _write_payload(out_path: Path, payload: Dict[str, Any], written: Dict[str, str]) -> str:
    """Write *payload* to ``<key>.json``; returns its ``REPORT.md`` line."""
    key = payload["experiment"]
    target = out_path / f"{key}.json"
    target.write_text(json.dumps(payload, indent=2) + "\n")
    written[key] = str(target)
    return f"- **{key}** — {payload['title']} ({payload['wall_seconds']}s) -> `{target.name}`"


def run_experiment(
    key: str, overrides: Optional[Dict[str, Any]] = None, jobs: int = 1
) -> Dict[str, Any]:
    """Run one experiment by id; returns its ``<key>.json`` payload."""
    if key not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {key!r}")
    from repro.experiments import runner

    return _payload(key, runner.run_experiment(key, overrides, jobs=jobs))


def write_results(out_dir, outcomes: Dict[str, Any]) -> Dict[str, str]:
    """Write ``<key>.json`` + ``REPORT.md`` for already-run experiments.

    *outcomes* maps experiment id to a
    :class:`~repro.experiments.runner.ExperimentResult`.  Used by
    ``repro run-all --out`` after a shared-pool batch run.
    """
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    written: Dict[str, str] = {}
    report_lines = ["# Reproduction run", ""]
    for key, outcome in outcomes.items():
        report_lines.append(_write_payload(out_path, _payload(key, outcome), written))
    (out_path / "REPORT.md").write_text("\n".join(report_lines) + "\n")
    return written


def export_all(
    out_dir,
    only: Optional[Iterable[str]] = None,
    overrides: Optional[Dict[str, Dict[str, Any]]] = None,
    progress=print,
    jobs: int = 1,
) -> Dict[str, str]:
    """Run experiments and write ``<key>.json`` files plus ``REPORT.md``.

    Returns a map of experiment id -> output path.  Failures are
    recorded in the report rather than aborting the batch.
    """
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    keys = list(only) if only is not None else sorted(EXPERIMENTS)
    overrides = overrides or {}

    written: Dict[str, str] = {}
    report_lines = ["# Reproduction run", ""]
    for key in keys:
        progress(f"running {key} ...")
        try:
            payload = run_experiment(key, overrides.get(key), jobs=jobs)
        except Exception as exc:  # record, keep going
            report_lines.append(f"- **{key}**: FAILED — {exc!r}")
            continue
        report_lines.append(_write_payload(out_path, payload, written))
    (out_path / "REPORT.md").write_text("\n".join(report_lines) + "\n")
    return written
