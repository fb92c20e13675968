"""Command-line surface: outputs, schema validity, exit codes, determinism."""

import json
import os
import subprocess
import sys
import textwrap
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import multiscreen
from multiscreen import (DegenerateColumnError, MethodSpec, SimSetting,
                         gen_instance, replicate)
from multiscreen.cli import main
from multiscreen.data_io import (write_csv_atomic, write_json_atomic,
                                 write_multistudy)

SCHEMA = json.loads(
    resources.files("multiscreen").joinpath("schemas/result.schema.json")
    .read_text())


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("data")
    setting = SimSetting(n=40, p=12, K=2, s0=3, beta_low=0.6, beta_high=0.9,
                         B=1, seed=3)
    data, active, _ = gen_instance(setting, 0)
    manifest = write_multistudy(data, tmp)
    return manifest, active


def run(args):
    return main([str(a) for a in args])


def load_result(out_dir):
    payload = json.loads((Path(out_dir) / "result.json").read_text())
    jsonschema.validate(payload, SCHEMA)
    return payload


class TestScreenCommand:
    def test_tsa(self, dataset_dir, tmp_path):
        manifest, active = dataset_dir
        out = tmp_path / "out"
        assert run(["screen", "--manifest", manifest, "--alpha1", "0.001",
                    "--alpha2", "0.05", "--method", "tsa", "--out", out]) == 0
        payload = load_result(out)
        assert payload["command"] == "screen"
        assert payload["seed"] is None
        kept = payload["result"]["kept"]
        for j in active:
            assert f"x{j + 1}" in kept
        assert (out / "records.csv").exists()

    def test_minsis_with_d(self, dataset_dir, tmp_path):
        manifest, _ = dataset_dir
        out = tmp_path / "out"
        assert run(["screen", "--manifest", manifest, "--method", "minsis",
                    "--d", "4", "--out", out]) == 0
        payload = load_result(out)
        assert len(payload["result"]["kept"]) == 4
        ranks = [row["rank"] for row in payload["result"]["ranking"]]
        assert ranks == list(range(1, 13))

    def test_d_with_tsa_is_usage_error(self, dataset_dir, tmp_path):
        manifest, _ = dataset_dir
        assert run(["screen", "--manifest", manifest, "--method", "tsa",
                    "--d", "4", "--out", tmp_path / "x"]) == 2

    def test_unknown_flag_exits_2(self, dataset_dir, tmp_path):
        manifest, _ = dataset_dir
        assert run(["screen", "--manifest", manifest, "--wat", "1",
                    "--out", tmp_path / "x"]) == 2

    def test_missing_manifest_exits_2(self, tmp_path):
        assert run(["screen", "--manifest", tmp_path / "none.json",
                    "--out", tmp_path / "x"]) == 2

    @pytest.mark.parametrize("body", [
        b"g1,y\n1,2\n3," + b"1" * 200_001 + b"\n",
        b"g1,y\n1,2\n3,\xff4\n",
    ], ids=["over_csv_field_limit", "not_utf8"])
    def test_unreadable_study_exits_2(self, tmp_path, capsys, body):
        (tmp_path / "a.csv").write_bytes(body)
        (tmp_path / "m.json").write_text(json.dumps({"entries": [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"}]}))
        assert run(["screen", "--manifest", tmp_path / "m.json",
                    "--out", tmp_path / "x"]) == 2
        assert capsys.readouterr().err.startswith("error: study 'A': ")

    def test_degenerate_data_exits_3(self, tmp_path):
        (tmp_path / "a.csv").write_text(
            "g1,g2,y\n" + "".join(f"1,{i},{i}\n" for i in range(10)))
        (tmp_path / "m.json").write_text(json.dumps({"entries": [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"}]}))
        assert run(["screen", "--manifest", tmp_path / "m.json",
                    "--out", tmp_path / "x"]) == 3


class TestMultipcCommand:
    def test_runs(self, dataset_dir, tmp_path):
        manifest, active = dataset_dir
        out = tmp_path / "out"
        assert run(["multipc", "--manifest", manifest, "--alpha1", "0.001",
                    "--alpha2", "0.05", "--max-order", "2", "--out", out]) == 0
        payload = load_result(out)
        stages = payload["result"]["active_sets"]
        assert 1 <= len(stages) <= 2
        if len(stages) == 2:
            assert set(stages[1]) <= set(stages[0])
        assert (out / "active_sets.csv").exists()

    def test_budget_exceeded_exits_3(self, dataset_dir, tmp_path):
        manifest, _ = dataset_dir
        assert run(["multipc", "--manifest", manifest, "--alpha1", "0.001",
                    "--alpha2", "0.05", "--max-order", "2", "--budget", "1",
                    "--out", tmp_path / "x"]) == 3


class TestSelectCommand:
    def test_runs_and_reports_refit(self, dataset_dir, tmp_path):
        manifest, active = dataset_dir
        out = tmp_path / "out"
        assert run(["select", "--manifest", manifest, "--alpha1", "0.001",
                    "--alpha2", "0.05", "--tune", "bic", "--grid", "12",
                    "--out", out]) == 0
        payload = load_result(out)
        result = payload["result"]
        assert result["lambda"] > 0
        assert result["selected"]
        assert len(result["ols"]) == 2
        for study in result["ols"]:
            assert "adj_r2" in study
            assert set(study["coefficients"]) == set(result["selected"])
        assert (out / "coefficients.csv").exists()
        assert (out / "fit_summary.csv").exists()


class TestSimulateCommand:
    def test_runs_and_is_byte_identical(self, tmp_path):
        args = ["simulate", "--setting", "1", "--n", "40", "--p", "20",
                "--s0", "3", "--b", "4", "--seed", "42"]
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(args + ["--out", out1]) == 0
        assert run(args + ["--out", out2]) == 0
        b1 = (out1 / "result.json").read_bytes()
        b2 = (out2 / "result.json").read_bytes()
        assert b1 == b2
        payload = load_result(out1)
        assert payload["seed"] == 42
        assert payload["result"]["b"] == 4
        assert (out1 / "metrics.csv").exists()
        assert (out1 / "summary.csv").exists()

    def test_threads_flag_same_bytes(self, tmp_path):
        base = ["simulate", "--setting", "2", "--n", "30", "--p", "15",
                "--s0", "2", "--b", "4", "--seed", "1"]
        assert run(base + ["--out", tmp_path / "s", "--threads", "1"]) == 0
        assert run(base + ["--out", tmp_path / "p", "--threads", "2"]) == 0
        s = (tmp_path / "s" / "result.json").read_text()
        p = (tmp_path / "p" / "result.json").read_text()
        assert json.loads(s)["result"] == json.loads(p)["result"]

    def test_env_threads_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MULTISCREEN_THREADS", "2")
        assert run(["simulate", "--setting", "1", "--n", "30", "--p", "10",
                    "--s0", "2", "--b", "2", "--seed", "0",
                    "--out", tmp_path / "env"]) == 0
        payload = load_result(tmp_path / "env")
        assert payload["config"]["threads"] == 2

    def test_bad_setting_exits_2(self, tmp_path):
        assert run(["simulate", "--setting", "9", "--out", tmp_path / "x"]) == 2

    def test_threads_below_one_exits_2(self, tmp_path, capsys):
        assert run(["simulate", "--setting", "1", "--threads", "-4",
                    "--out", tmp_path / "x"]) == 2
        assert "threads must be at least 1, got -4" in capsys.readouterr().err
        assert not (tmp_path / "x" / "result.json").exists()

    def test_env_threads_below_one_exits_2(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setenv("MULTISCREEN_THREADS", "-4")
        assert run(["simulate", "--setting", "1", "--out", tmp_path / "x"]) == 2
        assert ("MULTISCREEN_THREADS must be at least 1, got '-4'"
                in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()


class TestRocCommand:
    def test_runs_byte_identical(self, tmp_path):
        args = ["roc", "--setting", "2", "--n", "30", "--p", "15", "--s0",
                "2", "--b", "3", "--seed", "5"]
        assert run(args + ["--out", tmp_path / "r1"]) == 0
        assert run(args + ["--out", tmp_path / "r2"]) == 0
        assert (tmp_path / "r1" / "result.json").read_bytes() \
            == (tmp_path / "r2" / "result.json").read_bytes()
        payload = load_result(tmp_path / "r1")
        points = payload["result"]["min_sis"]
        assert points[0]["d"] == 0 and points[-1]["d"] == 15
        assert "tsa_point" in payload["result"]
        roc_csv = (tmp_path / "r1" / "roc.csv").read_text().splitlines()
        assert roc_csv[0] == "method,d,sensitivity,one_minus_specificity"
        assert roc_csv[-1].startswith("tsa,")

    def test_one_pass_over_instances(self, tmp_path, monkeypatch):
        import multiscreen.simulate as simulate
        calls = []

        def counted(setting, rep, **kwargs):
            calls.append(rep)
            return gen_instance(setting, rep, **kwargs)

        monkeypatch.setattr(simulate, "gen_instance", counted)
        assert run(["roc", "--setting", "1", "--p", "60", "--b", "3",
                    "--threads", "1", "--out", tmp_path / "r"]) == 0
        assert sorted(calls) == [0, 1, 2]
        point = load_result(tmp_path / "r")["result"]["tsa_point"]
        (tsa,) = replicate(SimSetting.preset(1, p=60, B=3, seed=0),
                           [MethodSpec()])
        assert point["sensitivity"] == tsa.mean_sensitivity
        assert point["one_minus_specificity"] == 1.0 - tsa.mean_specificity
        assert point["n_failed"] == tsa.n_failed


class TestSensitivityCommand:
    def test_table_layout(self, tmp_path):
        out = tmp_path / "out"
        assert run(["sensitivity", "--setting", "1", "--n", "30", "--p", "15",
                    "--s0", "2", "--b", "3", "--seed", "2",
                    "--alpha1-list", "0.01", "0.001",
                    "--alpha2-list", "0.15", "0.05", "--out", out]) == 0
        payload = load_result(out)
        assert len(payload["result"]["cells"]) == 4
        table = (out / "sensitivity.csv").read_text().splitlines()
        assert table[0] == "alpha1,alpha2=0.15,alpha2=0.05"
        assert len(table) == 3
        assert all("/" in cell for cell in table[1].split(",")[1:])
        assert (out / "cells.csv").exists()

    def test_default_grid_is_twelve_cells(self, tmp_path):
        out = tmp_path / "out"
        assert run(["sensitivity", "--setting", "1", "--n", "25", "--p",
                    "10", "--s0", "2", "--b", "2", "--seed", "2",
                    "--out", out]) == 0
        payload = load_result(out)
        assert len(payload["result"]["cells"]) == 12


class TestReplicationFailures:
    def test_messages_on_stderr(self, tmp_path, monkeypatch, capsys):
        import multiscreen.simulate as simulate

        def flaky(setting, rep, **kwargs):
            if rep == 1:
                raise DegenerateColumnError("column 'x3' is constant")
            return gen_instance(setting, rep, **kwargs)

        monkeypatch.setattr(simulate, "gen_instance", flaky)
        base = ["--setting", "1", "--n", "25", "--p", "10", "--s0", "2",
                "--b", "3", "--threads", "1"]
        for cmd in ("simulate", "roc", "sensitivity"):
            out = tmp_path / cmd
            assert run([cmd] + base + ["--out", out]) == 0
            err = capsys.readouterr().err
            assert err.count("rep 1: column 'x3' is constant") == 1, cmd
            assert load_result(out)["result"]["n_failed"] == 1


class TestDeterminismAcrossCommands:
    def test_screen_and_select_byte_identical(self, dataset_dir, tmp_path):
        manifest, _ = dataset_dir
        for i, cmd in enumerate((
                ["screen", "--manifest", manifest, "--method", "tsa"],
                ["select", "--manifest", manifest, "--grid", "8"],
                ["select", "--manifest", manifest, "--tune", "cv",
                 "--grid", "8"])):
            o1, o2 = tmp_path / f"{i}a", tmp_path / f"{i}b"
            assert run(cmd + ["--out", o1]) == 0
            assert run(cmd + ["--out", o2]) == 0
            assert (o1 / "result.json").read_bytes() \
                == (o2 / "result.json").read_bytes()


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak from /proc/self/status")
def test_screen_holds_the_data_once(tmp_path):
    # 5 studies of 100 rows at p = 5 000 hold 20 MB of data. While each
    # study's y kept its parsed table alive and result.json was encoded
    # whole before writing, this child peaked at 93.4-94.0 MB; it now peaks
    # at 62.8-63.4 MB (repeated runs, BLAS on one thread), so the 78 MB
    # bound leaves about 15 MB on either side. The child reads its own
    # high-water mark, VmHWM: its ru_maxrss would start from the RSS of
    # the test process that spawned it. Integer cells keep the fixture
    # quick to write.
    rng = np.random.default_rng(5)
    p = 5_000
    header = ["response", *(f"g{j}" for j in range(p))]
    entries = []
    for k in range(5):
        write_csv_atomic(tmp_path / f"s{k}.csv", header,
                         rng.integers(-999, 1000, (100, p + 1)).tolist())
        entries.append({"study_id": f"s{k}", "data_path": f"s{k}.csv",
                        "response_column": "response"})
    write_json_atomic(tmp_path / "manifest.json", {"entries": entries})
    script = textwrap.dedent("""
        import sys
        from multiscreen.cli import main
        assert main(["screen", "--manifest", sys.argv[1], "--method", "tsa",
                     "--out", sys.argv[2]]) == 0
        with open("/proc/self/status") as fh:
            print(next(line.split()[1] for line in fh
                       if line.startswith("VmHWM:")))
    """)
    src = str(Path(multiscreen.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "manifest.json"),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout.split()[-1]) / 1024
    assert peak_mb <= 78, f"screen peaked at {peak_mb:.1f} MB"
    assert len(load_result(tmp_path / "out")["result"]["features"]) == p


def test_serial_import_leaves_out_the_process_pool():
    # Only replicate with threads > 1 imports the process pool.
    src = str(Path(multiscreen.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    script = ("import sys, multiscreen.cli; "
              "print('concurrent.futures.process' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
