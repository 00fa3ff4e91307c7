"""Benchmark of the simulated storage stack: host cost and simulated results.

Run from the repository root:

    python3 bench/run.py [--seed N] [--out FILE] [--verify]
        Every workload REPEATS times, then once traced; prints the
        end-to-end metrics (median and quartiles) and the per-layer block.
        --verify adds one sanitized run per workload.
    python3 bench/run.py --compare PARENT.json CHANGE.json
        One row per (metric, workload) with a verdict, plus both digests.
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
        One workload, repeated for S seconds; the last line of output is
        a JSON result with the end-to-end (trace 0) or per-layer (trace 1)
        metrics named in BENCHMARK.json.

Every measured run is a fresh subprocess of this script (``--rep``),
started one at a time.  The simulator is imported from ``src/`` next to
this directory; nothing outside the checkout is read or written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"

#: A run that takes longer than this is killed and counted as failed.
REP_TIMEOUT_S = 150
#: Fewest untraced runs behind a median, however short --seconds is.
MIN_REPS = 3
#: Untraced runs per workload when all workloads run.
REPEATS = 9
MODES = ("plain", "traced", "sanitized")


def load_spec() -> Dict:
    with open(SPEC_FILE) as f:
        return json.load(f)


# -- one run, in its own process -------------------------------------------------


def run_once(name: str, seed: int, mode: str, duration: Optional[float]) -> Dict:
    """Build, prefill and measure one workload in this process."""
    import cProfile
    import resource
    import traceback

    import layers
    import workloads
    from repro.sim import Environment

    workload = workloads.WORKLOADS[name]
    params = dict(workload.params)
    if duration is not None:
        params["duration"] = duration
    out: Dict = {"params": params}
    run = None
    profile = cProfile.Profile() if mode == "traced" else None
    try:
        if mode == "sanitized":
            from repro.analysis.sanitizer import SanitizedEnvironment, attach_sanitizer

            env = SanitizedEnvironment()
        else:
            env = Environment()
        if profile is not None:
            profile.enable()
        run = workload.build(params, seed, env)
        builder = None
        if mode == "sanitized":
            attach_sanitizer(run.machine)
        elif mode == "traced":
            from repro.obs import SpanBuilder

            builder = SpanBuilder.attach(run.machine)
        t_first_op = time.monotonic()
        run.measure()
        wall_s = time.monotonic() - t_first_op
        if profile is not None:
            profile.disable()
    except Exception:
        if run is not None:
            out["ops"] = sum(t.ops for t in run.tenants)
        out["error"] = traceback.format_exc()
        return out

    summary = workloads.summarize(run)
    checks = dict(workload.checks(run, params))
    if params == workload.params:
        # p99 needs at least ten samples beyond it.
        checks["fg_samples_at_least_1000"] = summary["fg_samples"] >= 1000
    out.update(
        t_first_op=t_first_op,
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        fg_samples=summary["fg_samples"],
        ops=summary["ops"],
        digest=summary["digest"],
        checks=checks,
        counters=summary["layers"],
        **summary["sim"],
    )
    if profile is not None:
        from repro.obs import latency_breakdown

        out["profile"] = layers.attribute(profile, str(SRC / "repro"), str(BENCH_DIR))
        stages = latency_breakdown(builder.spans)["stages"]
        out["stages"] = {
            f"{stage}.{q}_ms": 1000 * stats[q]
            for stage, stats in stages.items()
            for q in ("p50", "p99")
        }
    return out


def spawn(name: str, seed: int, mode: str, duration: Optional[float]) -> Dict:
    """One run in a fresh subprocess; adds ``setup_s`` measured from its spawn."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--rep", name,
           "--seed", str(seed), "--mode", mode]
    if duration is not None:
        cmd += ["--duration", repr(duration)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"run timed out after {REP_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": proc.stderr.strip() or f"exit status {proc.returncode}"}
    if "t_first_op" in rec:
        # Interpreter start, imports, stack build and prefill: both
        # clocks are the system-wide CLOCK_MONOTONIC.
        rec["setup_s"] = rec["t_first_op"] - t_spawn
    return rec


# -- repeating runs and summarizing them -------------------------------------------


def quartiles(values: List[float]) -> Dict:
    """Median and quartiles.  Inclusive quartiles interpolate between runs
    only, so one slow run among a few moves q3 less than exclusive ones."""
    values = list(values)
    if len(values) < 2:
        q1 = q3 = values[0] if values else 0.0
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values) if values else 0.0,
            "q1": q1, "q3": q3, "n": len(values)}


def measure(name: str, seed: int, e2e: List[str], seconds: float, trace: bool = False,
            verify: bool = False, duration: Optional[float] = None) -> Dict:
    """One workload's record from untraced runs (at least MIN_REPS, until
    *seconds* pass) followed by the traced and sanitized runs asked for."""
    plain: List[Dict] = []
    started = time.monotonic()
    while len(plain) < MIN_REPS or time.monotonic() - started < seconds:
        plain.append(spawn(name, seed, "plain", duration))
    return summarize(name, seed, e2e, plain, extra_runs(name, seed, trace, verify, duration))


def extra_runs(name: str, seed: int, trace: bool, verify: bool,
               duration: Optional[float]) -> Dict[str, Dict]:
    modes = [mode for mode, wanted in (("traced", trace), ("sanitized", verify)) if wanted]
    return {mode: spawn(name, seed, mode, duration) for mode in modes}


def summarize(name: str, seed: int, e2e: List[str], plain: List[Dict],
              extra: Dict[str, Dict]) -> Dict:
    """The workload's record: raw values, quartiles, digest, check outcomes,
    op counts and, when traced, the per-layer block."""
    reference = next((r["digest"] for r in plain if "digest" in r), None)
    good = [r for r in plain if "error" not in r]
    # A run that crashed or timed out before counting its ops is charged
    # the op count of a good run, so that its failure shows in `failed`.
    fallback = max(good[0]["ops"] if good else 0, 1)
    failures: List[str] = []
    attempted = failed = 0
    labelled = [(f"run {i + 1}", r) for i, r in enumerate(plain)] + list(extra.items())
    for label, rec in labelled:
        ops = rec.get("ops") or fallback
        attempted += ops
        reasons = []
        if "error" in rec:
            reasons.append(rec["error"].strip().splitlines()[-1])
        else:
            reasons += [f"check {c} failed" for c, ok in rec["checks"].items() if not ok]
            if rec["digest"] != reference:
                reasons.append(f"digest {rec['digest'][:16]} != {str(reference)[:16]}")
        if reasons:
            failed += ops
            failures += [f"{label}: {reason}" for reason in reasons]

    first = good[0] if good else plain[0]
    params = first.get("params")
    record = {
        "workload": name,
        "seed": seed,
        "params": params,
        "config_hash": hashlib.sha256(
            json.dumps({"workload": name, "params": params}, sort_keys=True).encode()
        ).hexdigest()[:16],
        "digest": reference,
        "fg_samples": first.get("fg_samples"),
        "checks": first.get("checks"),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "runs": [{m: r[m] for m in e2e} for r in good],
        "summary": {m: quartiles([r[m] for r in good]) for m in e2e},
    }
    for mode, rec in extra.items():
        record[f"{mode}_digest"] = rec.get("digest")
    traced = extra.get("traced")
    if traced is not None and "profile" in traced and good:
        wall = record["summary"]["wall_s"]["median"]
        per_layer = dict(traced["profile"])
        per_layer.update(first["counters"])
        per_layer["sim.host_us_per_event"] = 1e6 * wall / max(first["counters"]["sim.events"], 1)
        per_layer.update(traced["stages"])
        per_layer["trace.overhead"] = traced["wall_s"] / wall
        record["per_layer"] = per_layer
    return record


# -- printing ----------------------------------------------------------------------


def print_record(record: Dict, spec: Dict) -> None:
    print(f"== {record['workload']}  seed {record['seed']}  config {record['config_hash']}"
          f"  digest {str(record['digest'])[:16]}")
    print(f"   {'metric':<16} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12}  n")
    for m in spec["end_to_end"]:
        s = record["summary"][m["name"]]
        print(f"   {m['name']:<16} {m['unit']:<9} {s['median']:>12.6g} {s['q1']:>12.6g}"
              f" {s['q3']:>12.6g}  {s['n']}")
    print(f"   foreground samples: {record['fg_samples']}   ops attempted: "
          f"{record['attempted']}   failed: {record['failed']}")
    per_layer = record.get("per_layer")
    if per_layer:
        import layers

        print(f"   {'layer':<11} {'self_s':>9} {'share':>7} {'calls_in':>10} {'us/call':>9}")
        for layer in layers.LAYERS:
            self_s, share, calls_in, us = (per_layer[f"{layer}.{field}"]
                                           for field in layers.FIELDS)
            print(f"   {layer:<11} {self_s:>9.4f} {share:>7.3f} {calls_in:>10} {us:>9.3f}")
        in_table = {f"{layer}.{field}" for layer in layers.LAYERS for field in layers.FIELDS}
        rest = [m["name"] for m in spec["per_layer"] if m["name"] not in in_table]
        for i in range(0, len(rest), 3):
            print("   " + "   ".join(f"{n}={per_layer[n]:.6g}" for n in rest[i:i + 3]))
    for failure in record["failures"]:
        print(f"   FAILED {failure}")


def verdict(base: List[float], change: List[float], bound: float, better: str) -> Dict:
    """Compare two sets of runs of one metric under its regression bound."""
    b, c = quartiles(base), quartiles(change)
    delta = (c["median"] - b["median"]) / b["median"] if b["median"] else 0.0
    worse_by = delta if better == "lower" else -delta
    spread = max((q["q3"] - q["q1"]) / q["median"] if q["median"] else 0.0 for q in (b, c))
    separated = max(change) < min(base) or min(change) > max(base)
    if spread > bound and not separated:
        label = "unresolved"
    elif worse_by > bound:
        label = "worse"
    elif worse_by < -bound:
        label = "improved"
    else:
        label = "unchanged"
    return {"base": b, "change": c, "delta": delta, "spread": spread, "verdict": label}


def problems(b_rec: Optional[Dict], c_rec: Optional[Dict]) -> List[str]:
    """Why one workload's two records cannot be compared, or the change is broken."""
    found = []
    for side, rec in (("parent", b_rec), ("change", c_rec)):
        if rec is None:
            found.append(f"{side}: workload missing")
            continue
        if not rec["runs"]:
            found.append(f"{side}: no good runs")
        if rec["failed"] or rec["failures"]:
            found.append(f"{side}: {rec['failed']} of {rec['attempted']} ops failed")
    if b_rec is not None and c_rec is not None and b_rec["digest"] != c_rec["digest"]:
        found.append("digests differ")
    return found


def compare(base_path: str, change_path: str, spec: Dict) -> int:
    """Print a verdict per (metric, workload); exit status 1 if any row is
    `worse`, or if any workload is missing, failed or changed its digest."""
    with open(base_path) as f:
        base = json.load(f)["workloads"]
    with open(change_path) as f:
        change = json.load(f)["workloads"]
    names = list(base) + [name for name in change if name not in base]
    broken = {name: problems(base.get(name), change.get(name)) for name in names}
    print(f"{'metric':<15} {'workload':<13} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8}  verdict")
    worse = 0
    for m in spec["end_to_end"]:
        for name in names:
            b_rec, c_rec = base.get(name), change.get(name)
            if b_rec is None or c_rec is None or not b_rec["runs"] or not c_rec["runs"]:
                print(f"{m['name']:<15} {name:<13} {'-':>34} {'-':>34} {'-':>8}  no runs")
                continue
            v = verdict([r[m["name"]] for r in b_rec["runs"]],
                        [r[m["name"]] for r in c_rec["runs"]], m["bound"], m["better"])
            worse += v["verdict"] == "worse"
            cells = [f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]"
                     for q in (v["base"], v["change"])]
            print(f"{m['name']:<15} {name:<13} {cells[0]:>34} {cells[1]:>34} "
                  f"{100 * v['delta']:>+7.2f}%  {v['verdict']} (bound {m['bound']:.0%})")
    print("\ndigests (parent / change):")
    for name in names:
        digests = [str((side.get(name) or {}).get("digest"))[:16] for side in (base, change)]
        status = "; ".join(broken[name]) or "ok"
        print(f"  {name:<13} {digests[0]} / {digests[1]}  {status}")
    return 1 if worse or any(broken.values()) else 0


def host_record() -> Dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        rev = proc.stdout.strip() or None
    return {
        "git_rev": rev,
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# -- entry point ---------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", help="run one workload (needs --seconds)")
    parser.add_argument("--seconds", type=float, help="keep repeating untraced runs this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: report per-layer metrics from a traced run")
    parser.add_argument("--duration", type=float,
                        help="override the simulated seconds of the measured phase")
    parser.add_argument("--verify", action="store_true",
                        help="add one sanitized run per workload; its digest must match")
    parser.add_argument("--out", help="write the run record (JSON) here")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--rep", help=argparse.SUPPRESS)
    parser.add_argument("--mode", choices=MODES, default="plain", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: the simulator sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.rep:
        print(json.dumps(run_once(args.rep, args.seed, args.mode, args.duration)))
        return 0

    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    e2e = [m["name"] for m in spec["end_to_end"]]

    if args.workload:
        if args.seconds is None:
            parser.error("--workload needs --seconds")
        record = measure(args.workload, args.seed, e2e, seconds=args.seconds,
                         trace=bool(args.trace), verify=args.verify, duration=args.duration)
        print_record(record, spec)
        if args.trace:
            wanted, values = spec["per_layer"], record.get("per_layer", {})
        else:
            wanted = spec["end_to_end"]
            values = {m: s["median"] for m, s in record["summary"].items() if s["n"]}
        correct = not record["failures"] and all(m["name"] in values for m in wanted)
        print(json.dumps({
            "correct": correct,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted if m["name"] in values},
        }))
        return 0 if correct else 1

    names = [w["name"] for w in spec["workloads"]]
    plain: Dict[str, List[Dict]] = {name: [] for name in names}
    # Round-robin over the workloads: a slow spell of the host then costs
    # each workload one run, not one workload several in a row.
    for _ in range(REPEATS):
        for name in names:
            plain[name].append(spawn(name, args.seed, "plain", args.duration))
    records = {}
    for name in names:
        records[name] = summarize(
            name, args.seed, e2e, plain[name],
            extra_runs(name, args.seed, True, args.verify, args.duration),
        )
        print_record(records[name], spec)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "repeats": REPEATS, "host": host_record(),
                       "workloads": records}, f, indent=1)
            f.write("\n")
    return 1 if any(r["failures"] for r in records.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
