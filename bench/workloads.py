"""Workload definitions and output checks of the benchmark.

A workload is a fixed list of CLI commands (one *round*) plus, for the
manifest workloads, a dataset written in set-up. Why each workload exists
is recorded in ``BENCHMARK.json``. Every command's output is
checked against ``reference.json``: byte-exact SHA-256 digests of
``result.json`` for the commands whose output is byte-identical by
contract, and the screened set, selected set, chosen penalty and per-penalty
BIC values for ``select``, whose solver diagnostics (``iterations``,
``kkt_residual``) a solver fix may legitimately change.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Paper sizes: K=5 studies of n=100 x p=1000. "tiny" is the smoke-test size.
SIZES = ("full", "tiny")

# mc-screen: replications per command in one round.
MC_B = {"full": 2, "tiny": 1}
MC_DIMS = {"full": [], "tiny": ["--p", "60"]}
# mc-screen draws its CLI seed from this pool, so every --seed maps to
# replications whose outputs have a stored reference digest.
MC_SEED_BASE = 20240811
MC_SEED_POOL = 8

# The manifest workloads use one pinned setting-2 instance: the stage-2
# path of multipc (94 -> 18 active) and the 10 000-sweep group-lasso stall
# of select at alpha2=0.001 are properties of this instance.
FIXTURE_SETTING = 2
FIXTURE_SEED = 20240811
FIXTURE_REP = 0
# The tiny fixture is small enough that every select fit converges quickly.
FIXTURE_OVERRIDES = {"full": {}, "tiny": {"p": 100, "K": 3, "s0": 3}}

# Absolute tolerance on each per-lambda BIC of select. Dropping a feature
# changes BIC by about K*log(N) = 31, so this only admits solver rounding.
BIC_ABS_TOL = 1e-4

MC_COMMANDS = ("simulate", "roc", "sensitivity")


# Workload name -> whether its set-up writes the manifest fixture.
WORKLOADS = {"mc-screen": False, "manifest-analysis": True,
             "select-path": True}


def commands(workload: str, size: str, seed: int, run_dir: Path):
    """One round of a workload: a list of (tag, argv, replications)."""
    out = run_dir / "out"
    if workload == "mc-screen":
        cli_seed = mc_cli_seed(seed)
        common = ["--setting", "1", *MC_DIMS[size], "--b", str(MC_B[size]),
                  "--seed", str(cli_seed), "--threads", "1"]
        return [(f"{cmd}@{cli_seed}", [cmd, *common, "--out", str(out / cmd)],
                 MC_B[size]) for cmd in MC_COMMANDS]
    manifest = str(run_dir / "fixture" / "manifest.json")
    if workload == "manifest-analysis":
        cmds = [(f"screen-{m}", ["screen", "--manifest", manifest,
                                 "--method", m])
                for m in ("tsa", "onestep", "minsis")]
        cmds.append(("multipc", ["multipc", "--manifest", manifest,
                                 "--max-order", "2"]))
    else:
        # Only alpha2=0.001, the stall: with the CLI default 0.05 as well, a
        # round takes about a minute, and a traced run (an untraced round plus
        # a traced one) would no longer stay under three minutes.
        cmds = [("select-a2-0.001", ["select", "--manifest", manifest,
                                     "--tune", "bic", "--grid", "50",
                                     "--alpha2", "0.001"])]
    return [(tag, [*argv, "--out", str(out / tag)], 0) for tag, argv in cmds]


def mc_cli_seed(seed: int) -> int:
    return MC_SEED_BASE + seed % MC_SEED_POOL


def write_fixture(size: str, directory: Path) -> Path:
    """Write the pinned setting-2 instance as a manifest plus CSVs."""
    from multiscreen.data_io import write_multistudy
    from multiscreen.simulate import SimSetting, gen_instance

    setting = SimSetting.preset(FIXTURE_SETTING, seed=FIXTURE_SEED,
                                **FIXTURE_OVERRIDES[size])
    data, _, _ = gen_instance(setting, FIXTURE_REP)
    return write_multistudy(data, directory)


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------

def summarize(argv, out_dir: Path) -> dict:
    """The reference entry of one command's output."""
    raw = (out_dir / "result.json").read_bytes()
    if argv[0] != "select":
        return {"sha256": hashlib.sha256(raw).hexdigest()}
    result = json.loads(raw)["result"]
    return {"select": {
        "screened": result["screened"],
        "selected": result["selected"],
        "lambda": result["lambda"],
        "lambdas": [row["lambda"] for row in result["tuning"]],
        "bic": [row["bic"] for row in result["tuning"]],
    }}


def check(argv, out_dir: Path, expected: dict) -> list[str]:
    """Mismatches between one command's output and its reference entry."""
    got = summarize(argv, out_dir)
    if "sha256" in expected:
        if got["sha256"] != expected["sha256"]:
            return [f"result.json digest {got['sha256']} != {expected['sha256']}"]
        return []
    got, want = got["select"], expected["select"]
    errors = [f"{key} {got[key]!r} != {want[key]!r}"
              for key in ("screened", "selected", "lambda", "lambdas")
              if got[key] != want[key]]
    if len(got["bic"]) != len(want["bic"]):
        errors.append(f"{len(got['bic'])} BIC values, expected {len(want['bic'])}")
    else:
        for i, (g, w) in enumerate(zip(got["bic"], want["bic"])):
            if not (g is not None and math.isfinite(g)
                    and abs(g - w) <= BIC_ABS_TOL):
                errors.append(f"bic[{i}] {g!r} != {w!r} (tolerance {BIC_ABS_TOL})")
    return errors


def failed_replications(argv, out_dir: Path) -> int:
    """Replications a simulation command reports as failed (0 otherwise)."""
    if argv[0] not in MC_COMMANDS:
        return 0
    result = json.loads((out_dir / "result.json").read_text())["result"]
    return result["n_failed"] + result.get("tsa_point", {}).get("n_failed", 0)
