"""Measure the spread of the benchmark and record its baseline.

Run from the repository root::

    python3 bench/baseline.py --runs 10                 # every workload
    python3 bench/baseline.py --workload mc-screen --runs 5 --no-write

For each workload it makes ``--runs`` untraced runs, each with another
``--seed``, and one traced run at the first seed. Per end-to-end metric it
prints the median, the quartiles and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median. Unless ``--no-write`` is given, it stores these, the traced
per-layer values, each run's provenance and time from start to exit, and the
map from each layer metric to the end-to-end metric it should move in
``bench/baseline.json``, replacing the entries of the workloads it ran.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BASELINE = BENCH_DIR / "baseline.json"

NOTE = ("select-path measures the known group-lasso stall on purpose: at "
        "alpha2=0.001 the fit at lambda ~78.06 runs all 10000 sweeps and ends "
        "with converged: false. Keep it in the workload until the solver is "
        "fixed; a fix should move group_select.sweeps_max and wall_ref_s there.")

# Layer metric prefix -> the end-to-end metric it should move, per workload.
MOVES = {
    "stats_core.normal_quantile": "~55% of gen_instance: wall_ref_s (simulate.reps_per_s) on mc-screen",
    "stats_core.chi2_quantile": "no end-to-end metric (a few calls of ~150 us); tracked for the criterion-1 timing gate",
    "simulate.gen_instance": "wall_ref_s (simulate.reps_per_s, cli.roc.wall_ref_s) on mc-screen; nothing elsewhere",
    "simulate.instances_per_rep": "4/3 while roc generates every instance twice: wall_ref_s (cli.roc.wall_ref_s) on mc-screen",
    "simulate.reps_failed": "bench.failed_frac on mc-screen",
    "screening": "wall_ref_s (simulate.reps_per_s) on mc-screen; wall_ref_s (cli.screen.wall_ref_s) on manifest-analysis; predicted no change on select-path",
    "multi_pc": "wall_ref_s (cli.multipc.wall_ref_s) on manifest-analysis",
    "group_select": "wall_ref_s (cli.select.wall_ref_s) on select-path; nothing elsewhere",
    "data_io": "wall_ref_s (cli.screen.wall_ref_s, cli.multipc.wall_ref_s) on manifest-analysis; a small share of cli.select.wall_ref_s on select-path",
    "cli": "the matching cli.<command>.wall_ref_s",
    "bench": "none: properties of the benchmark run",
}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit "
                         f"{proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"provenance": json.loads(lines[-2])["provenance"],
            "elapsed_s": time.perf_counter() - start, **json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(why),
                        help="repeat for several; default every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--no-write", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    entries = baseline.setdefault("workloads", {})
    for workload in args.workload or list(why):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [run(workload, seed, seconds, 0) for seed in seeds]
        traced = run(workload, args.first_seed, seconds, 1)
        failed = sum(r["failed"] for r in results + [traced])
        end_to_end = {}
        for name in bounds:
            end_to_end[name] = {
                "unit": results[0]["metrics"][name]["unit"],
                **summarize([r["metrics"][name]["value"] for r in results])}
            s = end_to_end[name]
            print(f"{workload:18} {name:12} median {s['median']:.4g} "
                  f"spread {s['spread']:.3f} (bound {bounds[name]})", flush=True)
        entries[workload] = {
            "why": why[workload],
            "seeds": list(seeds),
            "seconds": seconds,
            "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"]
                          for name, m in traced["metrics"].items()},
            "provenance": [r["provenance"] for r in results + [traced]],
            "elapsed_s": [r["elapsed_s"] for r in results + [traced]],
        }
        elapsed = entries[workload]["elapsed_s"]
        print(f"{workload:18} failed {failed}, run time max {max(elapsed[:-1]):.1f} s "
              f"untraced, {elapsed[-1]:.1f} s traced", flush=True)
    if not args.no_write:
        baseline.update(note=NOTE, moves=MOVES)
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
