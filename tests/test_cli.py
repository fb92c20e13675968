"""Command-line surface: outputs, schema validity, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import textwrap
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import use_cpus
import multiscreen
import multiscreen.data_io as data_io
from multiscreen import (DegenerateColumnError, MethodSpec, SimSetting,
                         gen_instance, replicate)
from multiscreen.cli import build_parser, main
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


@pytest.fixture(scope="module")
def digest_manifest(tmp_path_factory):
    data, _, _ = gen_instance(SimSetting.preset(2, p=150, K=3, seed=7), 0)
    return write_multistudy(data, tmp_path_factory.mktemp("digest"))


def _sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


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

    @pytest.mark.parametrize("empty", [False, True],
                             ids=["screened", "empty_screen"])
    def test_grid_below_two_exits_2(self, tmp_path, capsys, empty):
        # --grid is checked before the screen, so an empty screen does not
        # let a grid of one point through.
        setting = SimSetting(n=40, p=12, K=2, s0=3, beta_low=0.0,
                             beta_high=0.0 if empty else 1.0, B=1, seed=3)
        manifest = write_multistudy(gen_instance(setting, 0)[0], tmp_path)
        args = ["select", "--manifest", manifest, "--alpha1", "1e-6",
                "--alpha2", "1e-6"]
        assert run(args + ["--grid", "8", "--out", tmp_path / "ok"]) == 0
        assert load_result(tmp_path / "ok")["result"]["empty_screen"] is empty
        assert run(args + ["--grid", "1", "--out", tmp_path / "x"]) == 2
        assert "grid_size must be >= 2, got 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


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

    def test_bad_setting_exits_2(self, tmp_path):
        assert run(["simulate", "--setting", "9", "--out", tmp_path / "x"]) == 2

    def test_threads_below_one_exits_2(self, tmp_path, capsys):
        assert run(["simulate", "--setting", "1", "--threads", "-4",
                    "--out", tmp_path / "x"]) == 2
        assert "threads must be at least 1, got -4" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestOutputs:
    # config records every parsed flag but --out and --seed, so these sets
    # pin the parser's destinations.
    CONFIG_KEYS = {
        "screen": {"manifest", "alpha1", "alpha2", "method", "d"},
        "multipc": {"manifest", "alpha1", "alpha2", "max_order", "budget"},
        "select": {"manifest", "alpha1", "alpha2", "tune", "grid"},
        "simulate": {"setting", "n", "p", "k", "s0", "b", "alpha1", "alpha2",
                     "threads"},
        "roc": {"setting", "n", "p", "k", "s0", "b", "threads"},
        "sensitivity": {"setting", "n", "p", "k", "s0", "b", "alpha1_list",
                        "alpha2_list", "threads"},
    }
    SIM_ARGS = ["--setting", "1", "--n", "25", "--p", "10", "--s0", "2",
                "--b", "2", "--seed", "6"]

    @pytest.mark.parametrize("command", list(CONFIG_KEYS))
    def test_config_records_every_flag(self, command, dataset_dir, tmp_path):
        manifest, _ = dataset_dir
        extra = self.SIM_ARGS if command in ("simulate", "roc", "sensitivity") \
            else ["--manifest", manifest]
        out = tmp_path / "out"
        assert run([command] + extra + ["--out", out]) == 0
        payload = load_result(out)
        assert set(payload["config"]) == self.CONFIG_KEYS[command]
        assert payload["seed"] == (6 if "--seed" in extra else None)

    def test_simulate_records_resolved_dimensions(self, tmp_path):
        out = tmp_path / "out"
        assert run(["simulate", "--setting", "1", "--p", "10", "--s0", "2",
                    "--out", out]) == 0
        preset = SimSetting.preset(1)
        assert load_result(out)["config"] == {
            "setting": 1, "n": preset.n, "p": 10, "k": preset.K, "s0": 2,
            "b": preset.B, "alpha1": 1e-4, "alpha2": 0.05, "threads": 1}

    # A --threads below 1 is checked the same way in TestSimulateCommand.
    @pytest.mark.parametrize("argv", [
        ["simulate", "--setting", "1", "--b", "0"],
        ["screen", "--manifest", "missing.json"],
    ], ids=["b0", "manifest"])
    def test_rejected_command_leaves_no_out(self, argv, tmp_path,
                                            monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(argv + ["--out", "x"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("name", ["taken", ""], ids=["file", "empty"])
    def test_out_not_a_directory_exits_2_first(self, name, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("keep\n")
        # The missing manifest is never read: --out is checked first.
        assert run(["screen", "--manifest", "missing.json",
                    "--out", name]) == 2
        assert capsys.readouterr().err.startswith(
            "error: --out must name a directory, got ")
        assert sorted(os.listdir(tmp_path)) == ["taken"]
        assert (tmp_path / "taken").read_text() == "keep\n"

    def test_out_below_a_regular_file_exits_2(self, dataset_dir, tmp_path,
                                              capsys):
        # Making the directory raises NotADirectoryError, an OSError; it is
        # reported like any input error, not as a traceback.
        manifest, _ = dataset_dir
        (tmp_path / "taken").write_text("keep\n")
        assert run(["screen", "--manifest", manifest,
                    "--out", tmp_path / "taken" / "sub"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Not a directory" in err
        assert "Traceback" not in err
        assert (tmp_path / "taken").read_text() == "keep\n"

    def test_unreadable_data_file_exits_2(self, dataset_dir, tmp_path,
                                          monkeypatch, capsys):
        manifest, _ = dataset_dir
        use_cpus(monkeypatch, 1)

        def refuse(file, *args, **kwargs):
            if Path(file).suffix == ".csv":
                raise PermissionError(13, "Permission denied", str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(data_io, "open", refuse, raising=False)
        assert run(["screen", "--manifest", manifest,
                    "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: study ") and "Permission denied" in err
        assert not (tmp_path / "out").exists()

    # Every subcommand's options as (type, default, required, choices,
    # nargs), so a flag cannot be dropped, renamed or retyped unseen.
    _SIM = {
        "--setting": ("int", None, True, [1, 2, 3, 4], None),
        "--n": ("int", None, False, None, None),
        "--p": ("int", None, False, None, None),
        "--k": ("int", None, False, None, None),
        "--s0": ("int", None, False, None, None),
        "--b": ("int", None, False, None, None),
        "--seed": ("int", 0, False, None, None),
        "--threads": ("int", 1, False, None, None),
        "--out": (None, None, True, None, None),
    }
    _MANIFEST = {
        "--manifest": (None, None, True, None, None),
        "--alpha1": ("float", 0.0001, False, None, None),
        "--alpha2": ("float", 0.05, False, None, None),
        "--out": (None, None, True, None, None),
    }
    OPTIONS = {
        "screen": {**_MANIFEST,
                   "--method": (None, "tsa", False,
                                ["tsa", "onestep", "minsis"], None),
                   "--d": ("int", None, False, None, None)},
        "multipc": {**_MANIFEST,
                    "--max-order": ("int", 2, False, None, None),
                    "--budget": ("int", 1000000, False, None, None)},
        "select": {**_MANIFEST,
                   "--tune": (None, "bic", False, ["bic", "cv"], None),
                   "--grid": ("int", 50, False, None, None)},
        "simulate": {**_SIM,
                     "--alpha1": ("float", 0.0001, False, None, None),
                     "--alpha2": ("float", 0.05, False, None, None)},
        "roc": _SIM,
        "sensitivity": {**_SIM,
                        "--alpha1-list": ("float", [0.01, 0.001, 0.0001],
                                          False, None, "+"),
                        "--alpha2-list": ("float", [0.15, 0.05, 0.01, 0.001],
                                          False, None, "+")},
    }

    def test_parser_options(self):
        subs = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        got = {name: {a.option_strings[0]: (
            getattr(a.type, "__name__", a.type), a.default, a.required,
            a.choices, a.nargs) for a in sub._actions
            if a.option_strings[0] != "-h"}
            for name, sub in subs.choices.items()}
        assert got == self.OPTIONS

    # Small runs of every command: the simulation commands at B = 1 and 2,
    # the manifest commands on the digest_manifest instance.
    _MC = ["--setting", "4", "--p", "40"]
    _LEVELS = ["--alpha1-list", "0.01", "--alpha2-list", "0.05", "0.01"]
    DIGEST_RUNS = {
        "simulate-b1": ["simulate", *_MC, "--b", "1"],
        "simulate-b2": ["simulate", *_MC, "--b", "2"],
        "roc-b1": ["roc", *_MC, "--b", "1"],
        "roc-b2": ["roc", *_MC, "--b", "2"],
        "sensitivity-b1": ["sensitivity", *_MC, "--b", "1", *_LEVELS],
        "sensitivity-b2": ["sensitivity", *_MC, "--b", "2", *_LEVELS],
        "roc-p1": ["roc", "--setting", "4", "--p", "1", "--s0", "1",
                   "--b", "2"],
        "screen-tsa": ["screen", "--method", "tsa"],
        "screen-onestep": ["screen", "--method", "onestep"],
        "screen-minsis": ["screen", "--method", "minsis"],
        "screen-minsis-d7": ["screen", "--method", "minsis", "--d", "7"],
        "multipc-order3": ["multipc", "--max-order", "3"],
        "select-bic": ["select", "--tune", "bic", "--grid", "8"],
        "select-cv": ["select", "--tune", "cv", "--grid", "8"],
    }
    # SHA-256 of every CSV a run writes and of
    # json.dumps(payload["result"], sort_keys=True). Like the
    # TestSimulatedBits digests, these hold for one numpy build and one
    # SIMD dispatch. The B = 1 cells.csv holds nan standard errors.
    DIGESTS = {
        "simulate-b1": {
            "metrics.csv":
                "9596117fac5884073f8ffcb60386ac493ce7e5a2d6bac6d5a8118db0d3e32549",
            "summary.csv":
                "0c39b64921e6a501172246efc0f6ffe93514d51a78300204a653938b0a434ce5",
            "result":
                "51cb3f098f1720c4702cb6cd57e1963d7fbca5568a8658828bc6dab739cd96a6",
        },
        "simulate-b2": {
            "metrics.csv":
                "967d7567ecd9c7819ef8f5546115c4366a1bab8715791772c5f429dda21b0c3f",
            "summary.csv":
                "f4d972b29cd908a432d2e3e66803a99e06a20e0d39082f817a4d422a9c0333e0",
            "result":
                "a2f88fdd8fc235aac0085dcf5d625ec529ae9d790d76535cd92bd657bc6f3c74",
        },
        "roc-b1": {
            "roc.csv":
                "814ecea93f81097d89575ae02eaf3632b260f73aa87f821506a21e0b85938f73",
            "result":
                "d4ea32af5d25005892af85e3a5ecd7764da18b4bb47a80aaa99b548ff85fc401",
        },
        "roc-b2": {
            "roc.csv":
                "0b5feba6d1df462b8db56f5f06d979fc10231dae384bb935868f4c6d8f1a250d",
            "result":
                "d4b4224bda56fdb16c86c0a4f6ed4a69b20843e0b59635ab214338fa8d8ffa22",
        },
        "sensitivity-b1": {
            "cells.csv":
                "491543b704723ccc78d34408236beb914ad7bc3cff91161b6df481dba339f9a4",
            "sensitivity.csv":
                "80eed5274bbf6b516016e72ca03118398b8c2b270fb448ccd0ff5fc52a55cdd4",
            "result":
                "808f22ed8b39bf27e38b02c8082d90bb834fd37db634dacb90cc789f36d0efd8",
        },
        "sensitivity-b2": {
            "cells.csv":
                "a60d58b02dbfdc5546db0a721cfd39614d187b5b5c64195bd334b34bade8a63e",
            "sensitivity.csv":
                "cbf3a94e0740815e2d9785f61cce2acf5a198fcfb4750311fd62c343af95a6ec",
            "result":
                "16a9038630ab19d2ede3c2e915c2a074c3a694f41f4495cb492ed951a059af33",
        },
        "roc-p1": {
            "roc.csv":
                "cd85bd1c3bfd3a857f2ee43ce364a04779201086683bd52c7efbc8dc086772d4",
            "result":
                "856c996a6866d9eb159fb8afab3ea90c904eb7b2363d049fe65434694169c8f1",
        },
        "screen-tsa": {
            "records.csv":
                "abb3fbe879a9b5e4060d2aaa60f316c06c052b459e8adbfbba9f1c7be3edd0f5",
            "result":
                "e50f8253f89d7ccf31b769ba38562d6daaae4455dc7f6be2c6eb2fa30ad9a775",
        },
        "screen-onestep": {
            "records.csv":
                "2a68ceecb77714e140643b818c61244644fc1c0fe91cd6894913d390b796382d",
            "result":
                "77c13eb46a604e49028870bf40803f7219f218c2fb84cba319530cb07a5eae52",
        },
        "screen-minsis": {
            "records.csv":
                "7e78a399835c9f0bc2b0fa4ff7c21a7ddba20ce1447314ffe2bc7fafd8e6e329",
            "result":
                "36aa859f386b5b93e706bd7d1d23702899338fccb2056a832c84de70a9e306bc",
        },
        "screen-minsis-d7": {
            "records.csv":
                "e30eba437f6413466a771c48addf42d925558429c46baa7afd21f3fe6e529df2",
            "result":
                "6415d76634558ac6b32c3611d246559e78d287f6aa3d6dca49a1e4f3c2b3bfcd",
        },
        "multipc-order3": {
            "active_sets.csv":
                "8f82cc5937652635356beaacfb0e58f0dc239d755347a0c92ea725de6db3d5a1",
            "result":
                "7a4af83580ba720702689ccf609625b34e002fdd84fa3761fc7372d45f77bf7e",
        },
        "select-bic": {
            "coefficients.csv":
                "1894a38451938cab3c1eac52bdb7ceffab1f5307bc3e75d3594c8bdd3ca8385e",
            "fit_summary.csv":
                "ab69e5a5d6782b1f6af8529c13362908d520a5e3b58f61593e17dbea599784c2",
            "result":
                "5323988ce5fc9263b67861e4a64c1d64c4b9c1658d1730570411307e59e7641e",
        },
        "select-cv": {
            "coefficients.csv":
                "1894a38451938cab3c1eac52bdb7ceffab1f5307bc3e75d3594c8bdd3ca8385e",
            "fit_summary.csv":
                "ab69e5a5d6782b1f6af8529c13362908d520a5e3b58f61593e17dbea599784c2",
            "result":
                "8afd78b59a035029c425c31986f38c5ba88aa9122dd0e507d772d8c9b5aa3ef9",
        },
    }

    def test_output_files_match_digests(self, digest_manifest, tmp_path):
        got = {}
        for run_id, argv in self.DIGEST_RUNS.items():
            if argv[0] in ("screen", "multipc", "select"):
                argv = [argv[0], "--manifest", digest_manifest, *argv[1:]]
            out = tmp_path / run_id
            assert run(argv + ["--out", out]) == 0, run_id
            got[run_id] = {path.name: _sha256(path.read_bytes())
                           for path in sorted(out.glob("*.csv"))}
            got[run_id]["result"] = _sha256(json.dumps(
                load_result(out)["result"], sort_keys=True).encode())
        assert got == self.DIGESTS


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

    def test_one_replication_has_nan_standard_errors(self, tmp_path):
        out = tmp_path / "out"
        assert run(["sensitivity", "--setting", "4", "--p", "40", "--b", "1",
                    "--alpha1-list", "0.01", "--alpha2-list", "0.05", "0.01",
                    "--out", out]) == 0
        rows = (out / "cells.csv").read_text().splitlines()
        assert rows[0].endswith(",se_sensitivity,se_specificity")
        assert len(rows) == 3
        assert all(row.endswith(",nan,nan") for row in rows[1:])
        for cell in load_result(out)["result"]["cells"]:
            assert cell["se_sensitivity"] is None
            assert cell["se_specificity"] is None

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
    def test_screen_and_select_byte_identical(self, dataset_dir, tmp_path,
                                              monkeypatch):
        # Each command runs first on a cold table cache and then on a warm
        # one, so the bytes compared come from a parse and from the cache.
        manifest, _ = dataset_dir
        cache = manifest.parent / ".multiscreen-cache"
        hits = []
        stored = data_io._stored

        def counted(entry, tag):
            table = stored(entry, tag)
            hits.append(table is not None)
            return table

        monkeypatch.setattr(data_io, "_stored", counted)
        for i, cmd in enumerate((
                ["screen", "--manifest", manifest, "--method", "tsa"],
                ["select", "--manifest", manifest, "--grid", "8"],
                ["select", "--manifest", manifest, "--tune", "cv",
                 "--grid", "8"])):
            o1, o2 = tmp_path / f"{i}a", tmp_path / f"{i}b"
            shutil.rmtree(cache, ignore_errors=True)
            assert run(cmd + ["--out", o1]) == 0
            assert hits == [False, False]  # no entry loaded
            hits.clear()
            assert run(cmd + ["--out", o2]) == 0
            assert hits == [True, True]  # one entry per study
            hits.clear()
            assert (o1 / "result.json").read_bytes() \
                == (o2 / "result.json").read_bytes()


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak from /proc/self/status")
def test_screen_holds_the_data_once(tmp_path):
    # 5 studies of 100 rows at p = 5 000 hold 20 MB of data. While each
    # study's y kept its parsed table alive and result.json was encoded
    # whole before writing, this child peaked at 93.4-94.0 MB; it now peaks
    # at 58.6-59.3 MB (repeated runs, BLAS on one thread; 62.8-63.4 MB
    # with older numpy), so the 78 MB bound leaves about 15 MB on either
    # side. The child reads its own high-water mark, VmHWM: its ru_maxrss
    # would start from the RSS of the test process that spawned it. With
    # two or more usable CPUs the files are parsed in forked readers, and
    # the child's RUSAGE_CHILDREN ru_maxrss is the largest reader's peak:
    # 29.5-29.6 MB, the RSS it shares with the child at fork included (0
    # when the child reads serially). Integer cells keep the fixture
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
        import resource
        print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
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
    peak_kb, reader_peak_kb = map(int, proc.stdout.split()[-2:])
    peak_mb, reader_peak_mb = peak_kb / 1024, reader_peak_kb / 1024
    assert peak_mb <= 78, f"screen peaked at {peak_mb:.1f} MB"
    assert reader_peak_mb <= 40, f"a reader peaked at {reader_peak_mb:.1f} MB"
    assert len(load_result(tmp_path / "out")["result"]["features"]) == p


def test_serial_import_leaves_out_the_process_pool(dataset_dir):
    # Loading a manifest and replicate with threads > 1 both fork through
    # os.fork and import neither multiprocessing nor concurrent.futures.
    src = str(Path(multiscreen.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    manifest, _ = dataset_dir
    script = textwrap.dedent("""
        import sys, multiscreen.cli
        from multiscreen import MethodSpec, SimSetting, replicate
        print('concurrent.futures.process' in sys.modules)
        multiscreen.cli.load_multistudy(sys.argv[1])
        replicate(SimSetting.preset(2, p=50, B=3), [MethodSpec()], threads=2)
        print(sorted(m for m in sys.modules
                     if m.split(".")[0] in ("multiprocessing", "concurrent")))
    """)
    proc = subprocess.run([sys.executable, "-c", script, str(manifest)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["False", "[]"]
