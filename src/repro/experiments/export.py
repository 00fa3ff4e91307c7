"""Result files: one ``<key>.json`` per experiment plus ``REPORT.md``.

``python -m repro run-all --out DIR`` runs the suite through the
parallel runner (see :mod:`repro.experiments.runner`) and hands the
outcomes to :func:`write_results` — the artefact you would attach to a
reproduction report.  The written results are byte-identical for any
``--jobs``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

from repro.experiments import EXPERIMENTS, common


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


def with_faults(outcome) -> Any:
    """*outcome*'s result, plus a ``_faults`` section when the session
    ran a fault plan."""
    result = outcome.result
    if common.session().fault is None:
        return result
    if isinstance(result, dict):
        return dict(result, _faults=outcome.faults)
    return {"result": result, "_faults": outcome.faults}


def write_results(out_dir, outcomes: Dict[str, Any]) -> Dict[str, str]:
    """Write ``<key>.json`` + ``REPORT.md`` for already-run experiments.

    *outcomes* maps experiment id to a
    :class:`~repro.experiments.runner.ExperimentResult`; returns a map
    of experiment id -> written path.  Each ``result`` is
    :func:`with_faults` under the current session, the same value
    ``python -m repro run`` prints.  ``wall_seconds`` is the summed
    cell time (the serial-equivalent cost), so a payload does not
    depend on ``jobs``.
    """
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    written: Dict[str, str] = {}
    report_lines = ["# Reproduction run", ""]
    for key, outcome in outcomes.items():
        title = EXPERIMENTS[key][1]
        seconds = round(outcome.seconds, 1)
        payload = {
            "experiment": key,
            "title": title,
            "wall_seconds": seconds,
            "result": _jsonable(with_faults(outcome)),
        }
        target = out_path / f"{key}.json"
        target.write_text(json.dumps(payload, indent=2) + "\n")
        written[key] = str(target)
        report_lines.append(f"- **{key}** — {title} ({seconds}s) -> `{target.name}`")
    (out_path / "REPORT.md").write_text("\n".join(report_lines) + "\n")
    return written
