"""Regenerate bench/reference.json from the current code.

Run from the repository root::

    python3 bench/reference.py

It runs every workload's round once per size (once per pool seed for
mc-screen) and stores what ``workloads.check`` compares. Regenerate only
when a change is meant to alter outputs, and say why in the change.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402
from multiscreen.cli import main as cli_main  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    reference = {}
    for size in workloads.SIZES:
        for workload, needs_fixture in workloads.WORKLOADS.items():
            # The manifest path is part of result.json, so the reference
            # uses the same run directory as bench/run.py.
            run_dir = Path(".bench_runs") / workload
            if needs_fixture:
                workloads.write_fixture(size, run_dir / "fixture")
            seeds = (range(workloads.MC_SEED_POOL) if workload == "mc-screen"
                     else [0])
            entries = reference.setdefault(size, {}).setdefault(workload, {})
            for seed in seeds:
                for tag, argv, _ in workloads.commands(workload, size, seed,
                                                       run_dir):
                    if cli_main(list(argv)) != 0:
                        print(f"error: {tag} failed", file=sys.stderr)
                        return 1
                    entries[tag] = workloads.summarize(argv, Path(argv[-1]))
                    print(size, workload, tag, flush=True)
    (BENCH_DIR / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
