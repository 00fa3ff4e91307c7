"""Parallel experiment runner: fan independent cells across cores.

Every figure of the paper decomposes into *cells* — independent
(workload, scheduler, parameter) simulations that share nothing but
code.  Each cell builds its own :class:`~repro.sim.core.Environment`
and seeds its own RNG streams, so cells can run in any order, in any
process, and produce byte-identical results.

An experiment module opts into cell-level fan-out by defining::

    def cells(**overrides):
        # ordered list of (label, func, kwargs); func is an attribute
        # name in this module, or "package.module:name" for helpers
        # that live elsewhere (e.g. the shared isolation sweep).
        return [("cfq", "run", {"scheduler": "cfq"}), ...]

    def merge(pairs, **overrides):
        # pairs is [(label, result), ...] in cells() order; what this
        # returns *is* the experiment's output.
        return dict(pairs)

Modules without ``cells()`` run as a single opaque cell (their whole
``run`` call), which still parallelises across experiments in
``run-all``.  :func:`run_experiment` is the one library entry point
for running a figure: no module loops over its own cells.

Determinism rules:

- results are merged in **cell declaration order**, never completion
  order, so ``--jobs 1`` and ``--jobs N`` emit identical JSON;
- every cell runs under the caller's
  :class:`~repro.experiments.common.Session` (fault plan, trace, queue
  depth, hedge, sanitize): inline cells read it as it is, and
  each pool worker installs a copy once, so the ``--fault-*``-style
  flags apply under fan-out.  The runner reads the session and never
  writes it in the caller's process;
- each cell drains its own fault summaries and spans, whether it
  returns or raises, and they are concatenated in cell order — again
  matching the sequential order of stack creation.
"""

from __future__ import annotations

import importlib
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.experiments import EXPERIMENTS, common


class Cell(NamedTuple):
    """One schedulable unit of an experiment."""

    experiment: str  # experiment id, e.g. "fig15"
    label: str  # human-readable cell key, e.g. "read-seq/32"
    module: str  # module owning the experiment
    func: str  # attribute in *module*, or "pkg.mod:name"
    kwargs: Dict[str, Any]


class ExperimentResult(NamedTuple):
    """Merged outcome of one experiment's cells."""

    result: Any  # the module's merge() output (or its one run() cell's)
    faults: List[Dict]  # fault summaries, in stack-creation order
    seconds: float  # summed cell wall-clock (serial-equivalent time)
    spans: List[Dict] = []  # lifecycle spans (with session trace), cell order


def cell_function(default_module: str, func: str) -> Callable[..., Any]:
    """Resolve a cell's function name to the function itself."""
    if ":" in func:
        module_name, func_name = func.split(":", 1)
    else:
        module_name, func_name = default_module, func
    module = importlib.import_module(module_name)
    return getattr(module, func_name)


def call_cell(default_module: str, func: str, kwargs: Dict[str, Any]) -> Any:
    """Resolve and invoke a cell function by name."""
    return cell_function(default_module, func)(**kwargs)


def experiment_cells(key: str, overrides: Optional[Dict[str, Any]] = None) -> List[Cell]:
    """The ordered cell list for one experiment id."""
    try:
        module_name, _title = EXPERIMENTS[key]
    except KeyError:
        raise ValueError(f"unknown experiment {key!r}") from None
    module = importlib.import_module(module_name)
    overrides = dict(overrides or {})
    cells_fn = getattr(module, "cells", None)
    if cells_fn is None:
        return [Cell(key, key, module_name, "run", overrides)]
    return [
        Cell(key, label, module_name, func, kwargs)
        for label, func, kwargs in cells_fn(**overrides)
    ]


def merge_cell_results(
    key: str, overrides: Optional[Dict[str, Any]], cells: List[Cell], results: List[Any]
) -> Any:
    """Reassemble cell results into the experiment's canonical output."""
    module_name, _title = EXPERIMENTS[key]
    module = importlib.import_module(module_name)
    merge_fn = getattr(module, "merge", None)
    if merge_fn is None:
        if len(results) != 1:  # pragma: no cover - cells() without merge()
            raise RuntimeError(f"{key} produced {len(results)} cells but defines no merge()")
        return results[0]
    pairs = list(zip([cell.label for cell in cells], results))
    return merge_fn(pairs, **(overrides or {}))


def _execute_cell(default_module: str, func: str, kwargs: Dict[str, Any]):
    """Run one cell; drain the fault summaries and spans its stacks
    produced, also when it raises, so none leak into the next cell.
    Leftovers from stacks built outside any cell (a cell function
    called directly) are discarded first, so none leak into this one."""
    common.drain_fault_summaries()
    common.drain_spans()
    started = time.perf_counter()  # simlint: disable=SIM001 (host wall time, not sim time)
    try:
        result = call_cell(default_module, func, kwargs)
    finally:
        faults = common.drain_fault_summaries()
        spans = common.drain_spans()
    return result, faults, spans, time.perf_counter() - started  # simlint: disable=SIM001 (host wall time)


def execute_cells(
    cells: List[Cell],
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Tuple[Any, List[Dict], List[Dict], float]]:
    """Execute *cells*, returning ``(result, faults, spans, seconds)``
    per cell.

    Results are returned in declaration order regardless of completion
    order.  ``jobs <= 1`` runs inline (no pool, no pickling); a cell
    failure propagates either way.  Every cell runs under the current
    :class:`~repro.experiments.common.Session`: pool workers install it
    once, and the caller's is never written.
    """
    if jobs <= 1 or len(cells) <= 1:
        out = []
        for cell in cells:
            if progress is not None:
                progress(f"running {cell.experiment}:{cell.label} ...")
            out.append(_execute_cell(cell.module, cell.func, cell.kwargs))
        return out

    with ProcessPoolExecutor(
        max_workers=jobs, initializer=common.install, initargs=(common.session(),),
    ) as pool:
        futures = [
            pool.submit(_execute_cell, cell.module, cell.func, cell.kwargs)
            for cell in cells
        ]
        out = []
        for cell, future in zip(cells, futures):
            if progress is not None:
                progress(f"waiting {cell.experiment}:{cell.label} ...")
            out.append(future.result())
        return out


def run_experiments(
    requests: Iterable[Tuple[str, Optional[Dict[str, Any]]]],
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, ExperimentResult]:
    """Run many experiments' cells through one shared worker pool.

    *requests* is an ordered iterable of ``(experiment id, overrides)``.
    Returns ``{id: ExperimentResult}`` with insertion order matching the
    request order — merged per experiment from cells executed across the
    whole batch.

    With the session's ``trace`` on, every stack gets a span builder and
    each result's ``spans`` holds the lifecycle spans concatenated in cell
    declaration order — within a cell, in stack-creation order — so the
    merged span stream is byte-identical for any ``jobs``.
    """
    requests = [(key, dict(overrides or {})) for key, overrides in requests]
    plan: List[Tuple[str, Dict[str, Any], List[Cell]]] = []
    all_cells: List[Cell] = []
    for key, overrides in requests:
        cells = experiment_cells(key, overrides)
        plan.append((key, overrides, cells))
        all_cells.extend(cells)

    outcomes = execute_cells(all_cells, jobs=jobs, progress=progress)

    merged: Dict[str, ExperimentResult] = {}
    cursor = 0
    for key, overrides, cells in plan:
        chunk = outcomes[cursor : cursor + len(cells)]
        cursor += len(cells)
        results = [result for result, _faults, _spans, _seconds in chunk]
        faults = [summary for _r, cell_faults, _sp, _s in chunk for summary in cell_faults]
        spans = [span for _r, _f, cell_spans, _s in chunk for span in cell_spans]
        seconds = sum(s for _r, _f, _sp, s in chunk)
        merged[key] = ExperimentResult(
            merge_cell_results(key, overrides, cells, results), faults, seconds, spans
        )
    return merged


def run_experiment(
    key: str,
    overrides: Optional[Dict[str, Any]] = None,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> ExperimentResult:
    """Run one experiment, fanning its cells across *jobs* workers."""
    return run_experiments([(key, overrides)], jobs=jobs, progress=progress)[key]
