"""Tracing must be pure observation.

Two contracts: (1) a run with tracing enabled produces byte-identical
experiment JSON to one with the bus idle (no subscribers at all); and
(2) the merged span stream is identical whether cells run serially or
fanned across worker processes.
"""

import json

from repro.cli import _jsonable
from repro.experiments import common, runner
from repro.obs import validate_span, write_spans
from repro.units import KB, MB

#: Reduced-scale fig13 cells: two run sizes, short duration.
FIG13 = {"run_sizes": [16 * KB, 1 * MB], "duration": 2.0}


def _result_fingerprint(outcome) -> str:
    return json.dumps(_jsonable(outcome.result), sort_keys=True)


def _traced(jobs: int):
    """fig13 at reduced scale under a traced session."""
    with common.using(trace=True):
        return runner.run_experiment("fig13", FIG13, jobs=jobs)


def test_traced_result_identical_to_untraced():
    plain = runner.run_experiment("fig13", FIG13, jobs=1)
    traced = _traced(jobs=1)
    assert _result_fingerprint(plain) == _result_fingerprint(traced)
    assert not plain.spans
    assert traced.spans


def test_spans_validate_against_schema():
    traced = _traced(jobs=1)
    assert traced.spans
    for span in traced.spans:
        validate_span(span)


def test_serial_and_parallel_spans_identical(tmp_path):
    serial = _traced(jobs=1)
    parallel = _traced(jobs=2)
    assert serial.spans == parallel.spans
    a, b = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
    write_spans(a, serial.spans)
    write_spans(b, parallel.spans)
    assert a.read_bytes() == b.read_bytes()
    assert _result_fingerprint(serial) == _result_fingerprint(parallel)
