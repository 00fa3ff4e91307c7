"""Command-line interface: run any paper experiment and print JSON.

Usage::

    python -m repro list                 # list experiment ids
    python -m repro run fig13            # regenerate one figure
    python -m repro run fig13 --set duration=10 --set rate_limit=1048576
    python -m repro run fig15 --jobs 4   # fan the figure's cells across cores
    python -m repro run-all --jobs 8     # the whole figure suite in parallel
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict

from repro.experiments import EXPERIMENTS
from repro.experiments.export import _jsonable, with_faults


def _parse_override(text: str) -> Any:
    key, _, raw = text.partition("=")
    if not _:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    try:
        value: Any = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def cmd_list(_args) -> int:
    width = max(len(key) for key in EXPERIMENTS)
    for key, (module, title) in sorted(EXPERIMENTS.items()):
        print(f"{key.ljust(width)}  {title}")
    return 0


def _build_fault_plan(args):
    """A FaultPlan from the --fault-* flags, or None if all defaults."""
    from repro.faults import FaultPlan

    plan = FaultPlan(
        read_error_prob=args.fault_read_error_prob,
        write_error_prob=args.fault_write_error_prob,
        error_latency=args.fault_error_latency,
        slow_factor=args.fault_slow_factor,
        stall_prob=args.fault_stall_prob,
        stall_duration=args.fault_stall_duration,
        power_loss_at=args.fault_power_loss_at,
    )
    return None if plan.empty else plan


def _resolve_jobs(jobs: int) -> int:
    """``--jobs 0`` means "one worker per core"."""
    return jobs if jobs > 0 else (os.cpu_count() or 1)


def _cli_session(args):
    """Install the run session the flags of ``run``/``run-all`` ask for,
    for the length of a with-block.

    Without ``--sanitize`` the session's own flag (seeded from
    REPRO_SANITIZE) stays in force.
    """
    from repro.experiments import common

    plan = _build_fault_plan(args)
    return common.using(
        fault=None if plan is None else (plan, args.fault_seed),
        trace=args.trace is not None,
        queue_depth=args.queue_depth,
        hedge=args.hedge,
        sanitize=args.sanitize or common.session().sanitize,
    )


def cmd_run(args) -> int:
    entry = EXPERIMENTS.get(args.experiment)
    if entry is None:
        print(f"unknown experiment {args.experiment!r}; try `python -m repro list`",
              file=sys.stderr)
        return 2
    _module_name, title = entry
    overrides: Dict[str, Any] = dict(args.overrides or [])

    from repro.experiments import runner

    print(f"# {title}", file=sys.stderr)
    with _cli_session(args):
        outcome = runner.run_experiment(
            args.experiment, overrides, jobs=_resolve_jobs(args.jobs)
        )
        result = with_faults(outcome)
    if args.trace is not None:
        _write_trace(args.trace, args.experiment, outcome.spans)
    json.dump(_jsonable(result), sys.stdout, indent=2)
    print()
    return 0


def _write_trace(trace_dir: str, experiment: str, spans) -> None:
    """Write one experiment's span stream as JSONL under *trace_dir*."""
    from pathlib import Path

    from repro.obs import write_spans

    path = Path(trace_dir) / f"{experiment}.spans.jsonl"
    count = write_spans(path, spans)
    print(f"# wrote {count} spans to {path}", file=sys.stderr)


def cmd_run_all(args) -> int:
    """Run the whole figure suite (or --only subsets), cells in parallel."""
    import time

    from repro.experiments import runner

    keys = sorted(args.only) if args.only else sorted(EXPERIMENTS)
    unknown = [key for key in keys if key not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2

    jobs = _resolve_jobs(args.jobs)
    print(f"# running {len(keys)} experiments with --jobs {jobs}", file=sys.stderr)
    started = time.perf_counter()  # simlint: disable=SIM001 (host wall time, not sim time)
    with _cli_session(args):
        outcomes = runner.run_experiments(
            [(key, None) for key in keys],
            jobs=jobs,
            progress=lambda line: print(line, file=sys.stderr),
        )
        elapsed = time.perf_counter() - started  # simlint: disable=SIM001 (host wall time)

        if args.trace is not None:
            for key in keys:
                _write_trace(args.trace, key, outcomes[key].spans)

        # Both outputs report under the run's session, so a fault plan's
        # ``_faults`` section reaches the files as well as stdout.
        if args.out:
            from repro.experiments.export import write_results

            written = write_results(args.out, outcomes)
            print(f"wrote {len(written)} result files to {args.out}", file=sys.stderr)
        else:
            json.dump(_jsonable({key: with_faults(outcomes[key]) for key in keys}),
                      sys.stdout, indent=2)
            print()
    # Summed cell time over wall time is the *average concurrency*
    # achieved, not a true speedup: per-cell times are measured inside
    # (possibly contended) workers, so comparing against a dedicated
    # serial run is the only honest speedup measurement.
    cell_time = sum(outcomes[key].seconds for key in keys)
    print(
        f"# suite wall-clock {elapsed:.1f}s (summed cell time {cell_time:.1f}s, "
        f"avg concurrency {cell_time / elapsed if elapsed > 0 else 1.0:.2f})",
        file=sys.stderr,
    )
    return 0


def _add_queue_depth_arg(parser) -> None:
    parser.add_argument(
        "--queue-depth", type=int, default=1, metavar="N",
        help="block-layer dispatch depth (NCQ tags) for stacks that "
             "don't pin their own; 1 (default) is the classic serial "
             "engine, byte-identical to previous releases; effective "
             "concurrency is capped by the device's channels",
    )


def _add_hedge_arg(parser) -> None:
    parser.add_argument(
        "--hedge", action="store_true",
        help="speculatively re-issue requests that exceed the health "
             "monitor's adaptive deadline on a free dispatch slot "
             "(first completion wins); needs --queue-depth > 1 to have "
             "any effect",
    )


def _add_sanitize_arg(parser) -> None:
    parser.add_argument(
        "--sanitize", action="store_true",
        help="enable runtime invariant checks (monotonic clock, exact "
             "(priority, eid) dispatch order, conservative-sync causality, "
             "token conservation, slot bounds); violations raise "
             "SanitizerError with recent event history — slower, but "
             "results are unchanged when no invariant is broken",
    )


def _add_fault_args(parser) -> None:
    faults = parser.add_argument_group(
        "fault injection",
        "inject device faults during the run (default: none; results gain "
        "a _faults section with injector and retry statistics)",
    )
    faults.add_argument("--fault-read-error-prob", type=float, default=0.0,
                        metavar="P", help="per-read transient error probability")
    faults.add_argument("--fault-write-error-prob", type=float, default=0.0,
                        metavar="P", help="per-write transient error probability")
    faults.add_argument("--fault-error-latency", type=float, default=0.005,
                        metavar="SEC", help="device time consumed by a failed attempt")
    faults.add_argument("--fault-slow-factor", type=float, default=1.0,
                        metavar="X", help="multiply all service times (slow disk)")
    faults.add_argument("--fault-stall-prob", type=float, default=0.0,
                        metavar="P", help="per-op probability of a long stall")
    faults.add_argument("--fault-stall-duration", type=float, default=60.0,
                        metavar="SEC", help="length of an injected stall")
    faults.add_argument("--fault-power-loss-at", type=float, default=None,
                        metavar="SEC", help="cut power at this simulated time")
    faults.add_argument("--fault-seed", type=int, default=0,
                        metavar="N", help="seed for the fault RNG stream")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate experiments from 'Split-Level I/O Scheduling' (SOSP 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids").set_defaults(func=cmd_list)

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment id, e.g. fig13")
    run_parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        type=_parse_override,
        metavar="KEY=VALUE",
        help="override a run() keyword (JSON-parsed; repeatable)",
    )
    run_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan the experiment's independent cells across N worker "
             "processes (0 = one per core; results are byte-identical "
             "to --jobs 1)",
    )
    run_parser.add_argument(
        "--trace", metavar="DIR", default=None,
        help="attach per-request lifecycle tracing and write "
             "<experiment>.spans.jsonl to DIR (inspect with "
             "`python -m repro trace-report DIR`)",
    )
    _add_queue_depth_arg(run_parser)
    _add_hedge_arg(run_parser)
    _add_sanitize_arg(run_parser)
    _add_fault_args(run_parser)
    run_parser.set_defaults(func=cmd_run)

    all_parser = sub.add_parser(
        "run-all",
        help="run the whole figure suite, cells fanned across cores",
    )
    all_parser.add_argument(
        "--only", action="append", metavar="ID",
        help="restrict to these experiment ids (repeatable)",
    )
    all_parser.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="worker processes (default 0 = one per core; results are "
             "byte-identical for any N)",
    )
    all_parser.add_argument(
        "--out", metavar="DIR", default=None,
        help="write per-experiment JSON + REPORT.md to DIR instead of "
             "printing combined JSON to stdout",
    )
    all_parser.add_argument(
        "--trace", metavar="DIR", default=None,
        help="attach lifecycle tracing; writes one spans.jsonl per experiment",
    )
    _add_queue_depth_arg(all_parser)
    _add_hedge_arg(all_parser)
    _add_sanitize_arg(all_parser)
    _add_fault_args(all_parser)
    all_parser.set_defaults(func=cmd_run_all)

    chaos_parser = sub.add_parser(
        "chaos",
        help="run a seeded chaos campaign (random fault plans, hard "
             "invariants, shrinking); exit 1 on any violation",
    )
    chaos_parser.add_argument(
        "--plans", type=int, default=25, metavar="N",
        help="number of random fault plans to run (default 25)",
    )
    chaos_parser.add_argument(
        "--seed", type=int, default=1, metavar="N",
        help="campaign seed; plan i derives from seed*1000003+i",
    )
    chaos_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (0 = one per core; the report is "
             "byte-identical for any N)",
    )
    chaos_parser.add_argument(
        "--duration", type=float, default=3.0, metavar="SEC",
        help="simulated workload window per plan (default 3.0)",
    )
    chaos_parser.add_argument(
        "--queue-depth", type=int, default=4, metavar="N",
        help="block-layer dispatch depth for every run (default 4)",
    )
    chaos_parser.add_argument(
        "--no-hedge", action="store_true",
        help="disable hedged dispatch (on by default in campaigns)",
    )
    chaos_parser.add_argument(
        "--no-shrink", action="store_true",
        help="skip minimising failing plans",
    )
    chaos_parser.add_argument(
        "--forbid-retries", action="store_true",
        help="install an intentionally unsatisfiable invariant (the "
             "campaign's own red-path sanity check)",
    )
    chaos_parser.set_defaults(func=cmd_chaos)

    report_parser = sub.add_parser(
        "trace-report",
        help="summarize span JSONL files written by `run --trace`",
    )
    report_parser.add_argument(
        "trace_path",
        help="a spans.jsonl file, or a directory of <experiment>.spans.jsonl",
    )
    report_parser.add_argument(
        "--by-cause", action="store_true",
        help="additionally break each stage down per cause task",
    )
    report_parser.set_defaults(func=cmd_trace_report)

    lint_parser = sub.add_parser(
        "lint",
        help="run simlint (determinism/isolation static analysis, rules "
             "SIM001-SIM008) over Python files; exit 1 on any violation",
    )
    lint_parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text: location, rule, why, fix-it)",
    )
    lint_parser.add_argument(
        "--select", action="append", metavar="SIMnnn",
        help="restrict to these rule ids (repeatable)",
    )
    lint_parser.set_defaults(func=cmd_lint)

    demo_parser = sub.add_parser(
        "fs-demo",
        help="scripted reprofs session: ordinary file-API calls "
             "(open/write/ls/mv/rm) driving the simulated stack",
    )
    demo_parser.add_argument(
        "--device", choices=("hdd", "ssd"), default="ssd",
        help="device model for the demo stack (default ssd)",
    )
    demo_parser.add_argument(
        "--scheduler", default=None,
        help="scheduler registry name (default: noop pass-through)",
    )
    demo_parser.set_defaults(func=cmd_fs_demo)

    args = parser.parse_args(argv)
    return args.func(args)


def cmd_chaos(args) -> int:
    """Run a chaos campaign and print its report; exit 1 on violations."""
    from repro.faults.campaign import run_campaign

    report = run_campaign(
        plans=args.plans,
        seed=args.seed,
        jobs=_resolve_jobs(args.jobs),
        duration=args.duration,
        queue_depth=args.queue_depth,
        hedge=not args.no_hedge,
        shrink=not args.no_shrink,
        forbid_retries=args.forbid_retries,
        progress=lambda line: print(line, file=sys.stderr),
    )
    json.dump(_jsonable(report), sys.stdout, indent=2)
    print()
    print(
        f"# {report['plans']} plans, {report['failed_runs']} failing, "
        f"{report['violations']} violations "
        f"({report['power_loss_runs']} power-loss runs)",
        file=sys.stderr,
    )
    return 1 if report["violations"] else 0


def cmd_trace_report(args) -> int:
    """Validate span files and print per-stage latency breakdowns."""
    from pathlib import Path

    from repro.obs import SpanSchemaError, format_report, load_spans

    path = Path(args.trace_path)
    if path.is_dir():
        files = sorted(path.glob("*.spans.jsonl"))
        if not files:
            print(f"no *.spans.jsonl files in {path}", file=sys.stderr)
            return 2
    elif path.exists():
        files = [path]
    else:
        print(f"no such file or directory: {path}", file=sys.stderr)
        return 2

    first = True
    for file in files:
        try:
            spans = load_spans(file)
        except SpanSchemaError as exc:
            print(f"invalid span file: {exc}", file=sys.stderr)
            return 1
        if not first:
            print()
        first = False
        title = file.name.replace(".spans.jsonl", "")
        try:
            print(format_report(spans, title=title, by_cause=args.by_cause))
        except BrokenPipeError:  # e.g. `trace-report out/ | head`
            return 0
    return 0


def cmd_lint(args) -> int:
    """Run simlint over the given paths; exit 1 on any violation."""
    from repro.analysis.simlint import RULES, format_json, format_text, lint_paths

    select = None
    if args.select:
        select = {rule.upper() for rule in args.select}
        unknown = select - set(RULES)
        if unknown:
            print(
                f"unknown rules: {', '.join(sorted(unknown))}; valid: "
                f"{', '.join(sorted(r for r in RULES if r != 'SIM000'))}",
                file=sys.stderr,
            )
            return 2
    violations = lint_paths(args.paths, select=select)
    if args.format == "json":
        print(format_json(violations))
    else:
        print(format_text(violations))
    return 1 if violations else 0


def cmd_fs_demo(args) -> int:
    """A scripted reprofs session: plain file-API calls driving the
    simulated stack, with the sim clock printed after each step."""
    from repro.units import KB, MB
    from repro.vfs.reprofs import ReproFileSystem

    fs = ReproFileSystem(
        tenant="demo",
        device=args.device,
        scheduler=args.scheduler,
        memory_bytes=64 * MB,
    )

    def step(label):
        print(f"  t={fs.env.now * 1e3:8.3f} ms  {label}")

    print(f"reprofs demo on {fs!r}")
    fs.makedirs("/data/logs")
    step("makedirs /data/logs")
    with fs.open("repro://data/report.bin", "wb") as f:
        f.write(b"header:" + b"\x00" * (256 * KB))
        f.flush()
    step("wrote + fsynced /data/report.bin (256 KiB)")
    with fs.open("/data/logs/app.log", "ab") as f:
        for i in range(4):
            f.write(f"line {i}\n".encode())
    step("appended 4 records to /data/logs/app.log")
    print(f"  ls /data -> {fs.ls('/data')}")
    info = fs.info("/data/report.bin")
    print(f"  info -> {info}")
    head = fs.cat_file("/data/report.bin", start=0, end=7)
    step(f"read back header {head!r}")
    fs.mv("/data/report.bin", "/data/logs/report.bin")
    step("renamed report into /data/logs")
    fs.rm("/data", recursive=True)
    step("recursively removed /data")
    stats = fs.os.device.stats
    print(
        f"device: {stats.reads} reads / {stats.writes} writes, "
        f"{fs.pump.episodes} pump episodes, final clock {fs.env.now * 1e3:.3f} ms"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
