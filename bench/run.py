"""Benchmark of the multiscreen CLI: one workload per run.

Usage, from the repository root (see bench/README.md)::

    python3 bench/run.py --workload mc-screen --seed 1 --seconds 15 --trace 0

The run drives ``multiscreen.cli.main`` in-process from a single caller
(closed loop, ``--threads 1``): each command starts when the previous one
returns. It repeats the workload's round of commands until ``--seconds``
have passed (at least one round) and checks every output against
``bench/reference.json``. With ``--trace 1`` it then runs one more round
with every module traced and prints the per-layer metrics instead.

Times are reported in reference seconds: each interval is scaled by the
host speed that ``probe.Probe`` samples during it, so that the shared
host's changes of speed do not read as changes of the program.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
records provenance; run records and spans go to ``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
# One caller on one core: keep BLAS from starting threads of its own, in this
# process and in the set-up interpreters. This must precede the first import
# of numpy (by probe.py, just below).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402
from probe import Probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
# Kernel runs sampled right before and right after each set-up.
SETUP_PROBE_RUNS = 40
RUNS_DIR = Path(".bench_runs")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny runs the smoke-test size")
    return parser.parse_args(argv)


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def provenance(args) -> dict:
    import numpy
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "multiscreen").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            src.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def time_setup(workload: str, size: str, run_dir: Path,
               probe: Probe) -> tuple[float, float]:
    """Median time, in reference and in wall seconds, of a fresh interpreter
    importing the CLI and, for the manifest workloads, generating and
    writing the fixture."""
    code = ("import sys; sys.path[:0] = ['src', 'bench']; import multiscreen.cli; "
            + (f"import workloads; workloads.write_fixture({size!r}, "
               f"{str(run_dir / 'fixture')!r})" if WORKLOADS[workload] else ""))
    ref, raw = [], []
    for _ in range(SETUP_REPEATS):
        mark = probe.mark()
        probe.burst(SETUP_PROBE_RUNS)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        elapsed = time.perf_counter() - start
        probe.burst(SETUP_PROBE_RUNS)
        raw.append(elapsed)
        ref.append(elapsed * probe.factor(mark))
    return statistics.median(ref), statistics.median(raw)


class Round:
    """Times, failures and mismatches of one pass over a workload's commands."""

    def __init__(self):
        self.cmd_s: dict[str, float] = {}       # wall seconds
        self.cmd_ref_s: dict[str, float] = {}   # reference seconds
        self.attempted = 0
        self.failed = 0
        self.replications = 0
        self.reps_failed = 0

    @property
    def wall_s(self) -> float:
        return sum(self.cmd_s.values())

    @property
    def ref_s(self) -> float:
        return sum(self.cmd_ref_s.values())


def run_round(cmds, reference, main, tracer=None, run_id="",
              probe=None) -> Round:
    """One pass over ``cmds``. With a running ``probe``, its pauses are
    taken out of each command's time, and that time is scaled to reference
    seconds by the speed the probe saw during the command."""
    rnd = Round()
    for tag, argv, reps in cmds:
        out_dir = Path(argv[-1])
        if tracer is not None:
            tracer.run_id = f"{run_id}/{tag}"
        mark, paused = (probe.mark(), probe.spent) if probe else (0, 0.0)
        start = time.perf_counter()
        try:
            rc = main(list(argv))
        except Exception:  # a crash fails this command, not the run
            traceback.print_exc(file=sys.stderr)
            rc = -1
        elapsed = time.perf_counter() - start
        factor = 1.0
        if probe:
            elapsed -= probe.spent - paused
            factor = probe.factor(mark)
        rnd.cmd_s[argv[0]] = rnd.cmd_s.get(argv[0], 0.0) + elapsed
        rnd.cmd_ref_s[argv[0]] = rnd.cmd_ref_s.get(argv[0], 0.0) + elapsed * factor
        rnd.attempted += 1 + reps
        rnd.replications += reps
        errors = [f"exit code {rc}"] if rc != 0 else []
        if not errors:
            try:
                errors = workloads.check(argv, out_dir, reference[tag])
                rep_fail = workloads.failed_replications(argv, out_dir)
            except (OSError, KeyError, ValueError) as exc:
                errors, rep_fail = [f"unreadable output: {exc!r}"], 0
            rnd.reps_failed += rep_fail
            rnd.failed += rep_fail
        if errors:
            rnd.failed += 1
            print(f"check failed: {tag}: {'; '.join(errors)}", file=sys.stderr)
    return rnd


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "multiscreen" / "__init__.py").is_file():
        print("error: src/multiscreen not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    run_dir = RUNS_DIR / args.workload
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    reference = reference[args.size][args.workload]

    load_start = loadavg()
    probe = Probe()
    try:
        setup_s, setup_raw_s = time_setup(args.workload, args.size, run_dir,
                                          probe)
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from multiscreen.cli import main as cli_main

    cmds = workloads.commands(args.workload, args.size, args.seed, run_dir)
    rounds = []
    probe.start()
    try:
        deadline = time.perf_counter() + args.seconds
        while not rounds or time.perf_counter() < deadline:
            rounds.append(run_round(cmds, reference, cli_main, probe=probe))
    finally:
        probe.stop()
    wall_ref_s = statistics.median(r.ref_s for r in rounds)
    wall_raw_s = statistics.median(r.wall_s for r in rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = None
    if args.trace:
        from tracing import COMMANDS, Tracer, modules_seen, per_layer
        tracer = Tracer()
        uninstall = tracer.install()
        try:
            traced = run_round(cmds, reference, cli_main, tracer,
                               run_id=f"{args.workload}-{args.seed}")
        finally:
            uninstall()
    done = rounds + ([traced] if traced else [])
    attempted = sum(r.attempted for r in done)
    failed = sum(r.failed for r in done)

    if args.trace:
        metrics = per_layer(tracer, traced.replications)
        metrics["simulate.reps_failed"] = sum(r.reps_failed for r in done)
        metrics["simulate.reps_per_s"] = traced.replications / wall_ref_s
        for cmd in COMMANDS:
            metrics[f"cli.{cmd}.wall_ref_s"] = statistics.median(
                r.cmd_ref_s.get(cmd, 0.0) for r in rounds)
        metrics["bench.tracing_overhead"] = traced.wall_s / wall_raw_s
        metrics["bench.failed_frac"] = failed / attempted
        metrics["bench.wall_raw_s"] = wall_raw_s
        metrics["bench.setup_raw_s"] = setup_raw_s
        metrics["bench.speed_factor"] = wall_ref_s / wall_raw_s
    else:
        metrics = {"wall_ref_s": wall_ref_s, "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb}
    units = metric_units()
    record = {
        "provenance": {**provenance(args), "loadavg_start": load_start,
                       "loadavg_end": loadavg()},
        "setup": {"ref_s": setup_s, "wall_s": setup_raw_s},
        "rounds": [{"cmd_s": r.cmd_s, "cmd_ref_s": r.cmd_ref_s,
                    "wall_s": r.wall_s, "ref_s": r.ref_s} for r in rounds],
        "probe": {"samples": len(probe.samples), "spent_s": probe.spent},
        "traced_round": traced and {"cmd_s": traced.cmd_s,
                                    "wall_s": traced.wall_s},
    }
    run_dir.mkdir(parents=True, exist_ok=True)
    stem = f"seed{args.seed}-trace{args.trace}"
    (run_dir / f"run-{stem}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=2))
    if args.trace:
        tracer.write(run_dir / f"spans-{stem}.json",
                     {"provenance": record["provenance"],
                      "modules": modules_seen(tracer)})
    print(json.dumps({"provenance": record["provenance"],
                      "rounds": len(rounds)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
