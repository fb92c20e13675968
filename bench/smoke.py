"""Smoke test of the benchmark itself.

Run from the repository root::

    python3 bench/smoke.py

It runs every workload at the tiny size, untraced and traced, and checks
that every metric named in BENCHMARK.json is printed with its unit, that
no command or replication failed (``failed`` and ``bench.failed_frac`` are
0), and that the traced runs together emit spans from every traced module.
Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import MODULES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


def fail(message: str) -> int:
    print(f"FAIL {message}")
    return 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    seen = set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, "bench/run.py", "--workload", workload,
                    "--seed", str(SEED), "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                return fail(f"{label}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                return fail(f"{label}: metrics/units differ from BENCHMARK.json: "
                            f"{sorted(set(units.items()) ^ set(expected[trace].items()))}")
            if not result["correct"] or result["failed"] != 0:
                return fail(f"{label}: {result['failed']} of "
                            f"{result['attempted']} failed\n{proc.stderr}")
            if trace:
                if result["metrics"]["bench.failed_frac"]["value"] != 0:
                    return fail(f"{label}: bench.failed_frac is not 0")
                spans = json.loads((ROOT / ".bench_runs" / workload /
                                    f"spans-seed{SEED}-trace1.json").read_text())
                seen.update(spans["modules"])
            print(f"ok   {label}: {len(units)} metrics, "
                  f"{result['attempted']} attempted, 0 failed")
    missing = sorted(set(MODULES) - seen)
    if missing:
        return fail(f"traced runs emitted no span for modules {missing}")
    print(f"ok   traced modules: {', '.join(sorted(seen))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
