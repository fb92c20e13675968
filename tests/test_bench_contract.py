"""The benchmark's contract with the package, checked in the unit suite
rather than only in a benchmark run: the tracer (bench/tracing.py) patches
package functions by name, and the mc-screen and manifest-analysis digests
and the select-path penalty, penalty grid, sets and BICs stored in
bench/reference.json must hold."""

import importlib
import json
import sys
from pathlib import Path

import pytest

from multiscreen.cli import main as cli_main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name: str):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def _traced_functions(tracing):
    return {(module, func): getattr(
                importlib.import_module(f"multiscreen.{module}"), func)
            for module, funcs in tracing.TARGETS.items() for func in funcs}


def test_tracer_installs_and_uninstalls():
    tracing = _bench_module("tracing")
    originals = _traced_functions(tracing)
    uninstall = tracing.Tracer().install()
    try:
        wrapped = _traced_functions(tracing)
        for key, fn in originals.items():
            assert wrapped[key] is not fn, f"{key} was not wrapped"
            assert wrapped[key].__wrapped__ is fn
    finally:
        uninstall()
    assert _traced_functions(tracing) == originals


# Benchmark seeds 0 and 2 give the CLI seeds 20240811 and 20240813. Their
# setting-1 replications 0 and 1 draw the per-study r from (0.2, 0.4, 0.6)
# only, and r = 0.0 for four of their ten studies, respectively.
@pytest.mark.parametrize("bench_seed", [0, 2])
def test_mc_screen_outputs_match_reference(tmp_path, bench_seed):
    workloads = _bench_module("workloads")
    reference = json.loads((BENCH / "reference.json").read_text())
    expected = reference["full"]["mc-screen"]
    cmds = workloads.commands("mc-screen", "full", bench_seed, tmp_path)
    assert [argv[0] for _, argv, _ in cmds] == list(workloads.MC_COMMANDS)
    for tag, argv, _ in cmds:
        assert cli_main(list(argv)) == 0, tag
        out_dir = Path(argv[argv.index("--out") + 1])
        assert workloads.check(argv, out_dir, expected[tag]) == [], tag
        assert workloads.failed_replications(argv, out_dir) == 0, tag


def test_select_path_outputs_match_reference(tmp_path):
    workloads = _bench_module("workloads")
    reference = json.loads((BENCH / "reference.json").read_text())
    expected = reference["full"]["select-path"]
    workloads.write_fixture("full", tmp_path / "fixture")
    cmds = workloads.commands("select-path", "full", 0, tmp_path)
    assert [tag for tag, _, _ in cmds] == list(expected)
    for tag, argv, _ in cmds:
        assert cli_main(list(argv)) == 0, tag
        out_dir = Path(argv[argv.index("--out") + 1])
        assert workloads.check(argv, out_dir, expected[tag]) == [], tag


def test_manifest_analysis_outputs_match_reference(tmp_path, monkeypatch):
    # result.json records the --manifest string, so the run directory must
    # be the relative one bench/run.py uses from the repository root.
    workloads = _bench_module("workloads")
    reference = json.loads((BENCH / "reference.json").read_text())
    expected = reference["full"]["manifest-analysis"]
    monkeypatch.chdir(tmp_path)
    run_dir = Path(".bench_runs") / "manifest-analysis"
    workloads.write_fixture("full", run_dir / "fixture")
    cmds = workloads.commands("manifest-analysis", "full", 0, run_dir)
    assert sorted(tag for tag, _, _ in cmds) == sorted(expected)
    for tag, argv, _ in cmds:
        assert cli_main(list(argv)) == 0, tag
        out_dir = Path(argv[argv.index("--out") + 1])
        assert workloads.check(argv, out_dir, expected[tag]) == [], tag
