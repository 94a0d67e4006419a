"""End-to-end benchmark: XML bytes to HTTP estimates, four workloads.

One run of one workload (what ``BENCHMARK.json``'s command does)::

    python3 benchmarks/e2e/run.py --workload serve-read --seed 7 --seconds 10 --trace 0

prints every metric by name with its unit, checks every output, and
ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics untraced, the per-layer metrics
with ``--trace 1``.  It exits non-zero when any check fails.

All four workloads, ``--repeat`` times each with consecutive seeds,
into one results file::

    python3 benchmarks/e2e/run.py --seed 1 --repeat 3 --out results.json

Two results files, metric by metric, against the bounds in
``BENCHMARK.json``::

    python3 benchmarks/e2e/run.py --compare before.json after.json

Outputs (results, ``trace-*.json``, scratch files) go under
``benchmarks/e2e/out/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
WORKLOAD_NAMES = ("build-imdb", "summarize-xmark", "serve-read", "serve-update")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of each workload's measured region")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics from spans")
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --workload all: runs per workload")
    parser.add_argument("--tiny", action="store_true",
                        help="toy input sizes (the smoke test)")
    parser.add_argument("--out", help="results file (default under out/)")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    return parser.parse_args(argv)


# -- one workload ------------------------------------------------------------


def emitted(run, trace: bool) -> dict:
    """The metrics of the result line, each with its unit."""
    from workloads import E2E_UNITS, LAYER_UNITS

    units = LAYER_UNITS if trace else E2E_UNITS
    return {
        name: {"value": float(run.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }


def spec_problems(metrics: dict, trace: bool) -> list:
    """Differences between the emitted metrics and ``BENCHMARK.json``."""
    section = load_spec()["per_layer" if trace else "end_to_end"]
    declared = {entry["name"]: entry["unit"] for entry in section}
    problems = []
    if set(declared) != set(metrics):
        problems.append(
            f"metric names differ from BENCHMARK.json: "
            f"{sorted(set(declared) ^ set(metrics))}"
        )
    for name, entry in metrics.items():
        if name in declared and declared[name] != entry["unit"]:
            problems.append(f"{name}: unit {entry['unit']} != {declared[name]}")
        if not math.isfinite(entry["value"]):
            problems.append(f"{name} is not finite")
    return problems


def run_one(args) -> int:
    import workloads

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    profile = workloads.TINY if args.tiny else workloads.FULL
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace),
                        profile, workdir)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        if args.trace:
            run.tracer.write(OUT / f"trace-{tag}.json")
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = emitted(run, bool(args.trace))
    problems = run.problems + spec_problems(metrics, bool(args.trace))
    failed = run.failed + (len(problems) - len(run.problems))
    result = {
        "correct": not problems,
        "attempted": max(1, run.attempted),
        "failed": failed,
        "metrics": metrics,
    }
    with open(args.out or OUT / f"result-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       seconds=args.seconds, details=run.details,
                       problems=problems), handle, indent=1)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {run.attempted} attempted, {failed} failed")
    for problem in problems:
        print(f"  FAILED {problem}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for name, value in run.details.items():
        print(f"  [{name}] {value}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- every workload, repeated ----------------------------------------------------


def summarize(runs: dict) -> dict:
    """Median and quartiles per workload and metric."""
    summary = {}
    for workload, entries in runs.items():
        per_metric = {}
        for name in entries[0]["metrics"]:
            values = [entry["metrics"][name]["value"] for entry in entries]
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (values[0],) * 3)
            per_metric[name] = {
                "unit": entries[0]["metrics"][name]["unit"],
                "median": statistics.median(values),
                "q1": q1, "q3": q3, "values": values,
            }
        summary[workload] = per_metric
    return summary


def run_all(args) -> int:
    runs = {name: [] for name in WORKLOAD_NAMES}
    seeds = [args.seed + rep for rep in range(args.repeat)]
    correct, attempted, failed = True, 0, 0
    for seed in seeds:
        for workload in WORKLOAD_NAMES:
            argv = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.tiny:
                argv.append("--tiny")
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if result is None:
                correct = False
                failed += 1
                continue
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            runs[workload].append(dict(result, seed=seed))
    runs = {name: entries for name, entries in runs.items() if entries}
    report = {
        "pythonhashseed": "0",
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": seeds,
        "summary": summarize(runs),
        "runs": runs,
    }
    OUT.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else OUT / f"results-seed{args.seed}.json"
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"results: {out}")
    metrics = {
        f"{workload}.{name}": {"value": stats["median"], "unit": stats["unit"]}
        for workload, per_metric in report["summary"].items()
        for name, stats in per_metric.items()
    }
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# -- comparing two results files ---------------------------------------------------


def verdict(before: dict, after: dict, better: str, bound: float) -> tuple:
    """better / same / worse / unresolved for one workload and metric.

    Unresolved when either side's run-to-run spread (quartile distance
    over median) is wider than the bound, unless every run of one side
    beats every run of the other.  Worse when the median moved the wrong
    way by more than the bound; better when it moved the right way by
    more than the first side's own spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = before["median"] or 1e-12
    change = (after["median"] - before["median"]) / base
    worse_by = sign * change
    spread_before = (before["q3"] - before["q1"]) / base
    spread_after = (after["q3"] - after["q1"]) / (after["median"] or 1e-12)
    spread = max(spread_before, spread_after)
    # In "lower is better" terms: each side's best and worst run.
    after_runs = [sign * value for value in after["values"]]
    before_runs = [sign * value for value in before["values"]]
    if max(after_runs) < min(before_runs):
        return change, spread, "better"
    if min(after_runs) > max(before_runs) and worse_by > bound:
        return change, spread, "worse"
    if spread > bound:
        return change, spread, "unresolved"
    if worse_by > bound:
        return change, spread, "worse"
    if -worse_by > spread_before:
        return change, spread, "better"
    return change, spread, "same"


def compare(paths, out) -> int:
    before, after = (json.loads(Path(p).read_text(encoding="utf-8"))["summary"]
                     for p in paths)
    rows = []
    print(f"{'workload':16} {'metric':18} {'before':>12} {'after':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for entry in load_spec()["end_to_end"]:
        for workload in WORKLOAD_NAMES:
            if workload not in before or workload not in after:
                continue
            name = entry["name"]
            change, spread, word = verdict(before[workload][name],
                                           after[workload][name],
                                           entry["better"], entry["bound"])
            rows.append({"workload": workload, "metric": name,
                         "before": before[workload][name]["median"],
                         "after": after[workload][name]["median"],
                         "change": change, "spread": spread,
                         "bound": entry["bound"], "verdict": word})
            print(f"{workload:16} {name:18} {rows[-1]['before']:12.5g} "
                  f"{rows[-1]['after']:12.5g} {100 * change:+7.2f}% "
                  f"{100 * spread:6.2f}% {100 * entry['bound']:5.1f}%  {word}")
    if out:
        Path(out).write_text(json.dumps({"compared": list(paths), "rows": rows},
                                        indent=1), encoding="utf-8")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(args.compare, args.out)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Build output depends on the hash seed; pin it for the in-process
        # traced runs and the input generators, as for every child.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
