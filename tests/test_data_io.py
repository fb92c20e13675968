"""Manifest parsing, CSV ingestion with its error contract, and the exact
export/reload round trip."""

import csv
import enum
import hashlib
import inspect
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_no_child_left, use_cpus
import multiscreen
import multiscreen.data_io as data_io
from multiscreen import (InputError, ManifestError, MultiStudy, SimSetting,
                         Study, gen_instance, load_multistudy)
from multiscreen.data_io import (load_manifest, write_csv_atomic,
                                 write_json_atomic, write_multistudy)


def write(path, text):
    path.write_text(text)
    return path


def make_manifest(tmp_path, entries, feature_columns=None):
    doc = {"entries": entries}
    if feature_columns is not None:
        doc["feature_columns"] = feature_columns
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


class TestLoad:
    def test_two_studies_shared_columns(self, tmp_path):
        write(tmp_path / "a.csv", "g1,g2,g3,y\n1,2,3,1.5\n4,5,6,2.5\n7,8,9,3.5\n")
        write(tmp_path / "b.csv", "g1,g2,g3,y\n9,8,7,0.5\n6,5,4,1.0\n3,2,1,2.0\n")
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"},
            {"study_id": "B", "data_path": "b.csv", "response_column": "y"},
        ])
        data = load_multistudy(manifest)
        assert data.p == 3 and data.k == 2
        assert data.feature_names == ("g1", "g2", "g3")
        assert np.array_equal(data.studies[0].y, [1.5, 2.5, 3.5])
        assert np.array_equal(data.studies[1].x[:, 2], [7.0, 4.0, 1.0])

    def test_intersection_with_warning(self, tmp_path):
        write(tmp_path / "a.csv", "a,b,c,y\n1,2,3,0\n4,5,6,1\n7,8,9,0\n")
        write(tmp_path / "b.csv", "b,c,d,y\n1,2,3,0\n4,5,6,1\n7,8,9,0\n")
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"},
            {"study_id": "B", "data_path": "b.csv", "response_column": "y"},
        ])
        with pytest.warns(UserWarning, match="'a'.*'d'"):
            data = load_multistudy(manifest)
        assert data.feature_names == ("b", "c")
        assert data.p == 2

    def test_malformed_numeric_cites_row_and_column(self, tmp_path):
        rows = ["g1,g2,y"] + ["1,2,3"] * 6 + ["1,1.2.3,4", "5,6,7"]
        write(tmp_path / "a.csv", "\n".join(rows) + "\n")
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"}])
        with pytest.raises(ManifestError, match="row 7, column g2"):
            load_multistudy(manifest)

    def test_missing_file(self, tmp_path):
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "nope.csv", "response_column": "y"}])
        with pytest.raises(ManifestError, match="not found"):
            load_multistudy(manifest)

    def test_duplicate_columns(self, tmp_path):
        write(tmp_path / "a.csv", "g1,g1,y\n1,2,3\n4,5,6\n7,8,9\n")
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"}])
        with pytest.raises(ManifestError, match="duplicate column"):
            load_multistudy(manifest)
        write(tmp_path / "a.csv", "g2,g1,g1,y,g2,g2\n1,2,3,4,5,6\n")
        with pytest.raises(ManifestError,
                           match=re.escape("duplicate column names in "
                                           f"{tmp_path / 'a.csv'}: ['g1', 'g2']")):
            load_multistudy(manifest)

    def test_empty_intersection(self, tmp_path):
        write(tmp_path / "a.csv", "a,y\n1,0\n2,1\n3,0\n")
        write(tmp_path / "b.csv", "b,y\n1,0\n2,1\n3,0\n")
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"},
            {"study_id": "B", "data_path": "b.csv", "response_column": "y"},
        ])
        with pytest.raises(ManifestError, match="share no feature columns"):
            load_multistudy(manifest)

    def test_missing_value_rejected(self, tmp_path):
        write(tmp_path / "a.csv", "g1,y\n1,2\n,3\n4,5\n")
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"}])
        with pytest.raises(ManifestError, match="row 2, column g1"):
            load_multistudy(manifest)

    def test_explicit_feature_columns(self, tmp_path):
        write(tmp_path / "a.csv", "a,b,c,y\n1,2,3,0\n4,5,6,1\n7,8,9,0\n")
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"}],
            feature_columns=["c", "a"])
        data = load_multistudy(manifest)
        assert data.feature_names == ("c", "a")
        assert np.array_equal(data.studies[0].x[:, 0], [3.0, 6.0, 9.0])

    def test_explicit_feature_column_missing(self, tmp_path):
        write(tmp_path / "a.csv", "a,b,y\n1,2,0\n3,4,1\n5,6,0\n")
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"}],
            feature_columns=["a", "zz"])
        with pytest.raises(ManifestError, match="zz"):
            load_multistudy(manifest)

    def test_absent_columns_in_manifest_order_first_study_named(self, tmp_path):
        write(tmp_path / "a.csv", "aa,a,zz,y\n1,2,3,0\n4,5,6,1\n")
        write(tmp_path / "b.csv", "a,y\n1,0\n2,1\n")
        write(tmp_path / "c.csv", "y,a\n0,1\n1,2\n")
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"},
            {"study_id": "B", "data_path": "b.csv", "response_column": "y"},
            {"study_id": "C", "data_path": "c.csv", "response_column": "y"}],
            feature_columns=["zz", "a", "aa"])
        with pytest.raises(ManifestError, match=re.escape(
                "study 'B': feature column(s) ['zz', 'aa'] not in "
                f"{tmp_path / 'b.csv'}")):
            load_multistudy(manifest)

    def test_response_listed_in_feature_columns(self, tmp_path):
        write(tmp_path / "a.csv", "a,b,y\n1,2,0\n3,4,1\n")
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"}],
            feature_columns=["a", "y"])
        with pytest.raises(ManifestError, match=re.escape(
                "study 'A': response column 'y' is listed in feature_columns")):
            load_multistudy(manifest)

    @pytest.mark.parametrize("responses, features, expected", [
        # Study A fails both checks: its response check comes first.
        (("y", "y"), ["a", "y", "zz"],
         "study 'A': response column 'y' is listed"),
        # Study A lacks a column and study B lists its response: studies
        # are checked in manifest order.
        (("y", "b"), ["a", "zz", "b"],
         "study 'A': feature column(s) ['zz'] not in"),
    ])
    def test_alignment_check_precedence(self, tmp_path, responses, features,
                                        expected):
        write(tmp_path / "a.csv", "a,b,y\n1,2,0\n3,4,1\n")
        write(tmp_path / "b.csv", "a,b,y\n1,2,0\n3,4,1\n")
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv",
             "response_column": responses[0]},
            {"study_id": "B", "data_path": "b.csv",
             "response_column": responses[1]}],
            feature_columns=features)
        with pytest.raises(ManifestError, match=re.escape(expected)):
            load_multistudy(manifest)

    def test_response_column_missing(self, tmp_path):
        write(tmp_path / "a.csv", "a,b\n1,2\n3,4\n5,6\n")
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"}])
        with pytest.raises(ManifestError, match="response column"):
            load_multistudy(manifest)

    def test_manifest_validation(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text("{not json")
        with pytest.raises(ManifestError, match="JSON"):
            load_manifest(bad)
        with pytest.raises(ManifestError, match="not found"):
            load_manifest(tmp_path / "missing.json")
        dup = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"},
            {"study_id": "A", "data_path": "b.csv", "response_column": "y"}])
        with pytest.raises(ManifestError, match="duplicate study ids"):
            load_manifest(dup)


class TestRoundTrip:
    def test_export_reload_exact(self, tmp_path):
        setting = SimSetting(n=17, p=9, K=3, s0=2, beta_low=0.4,
                             beta_high=0.8, B=1, seed=99)
        data, _, _ = gen_instance(setting, 0)
        manifest_path = write_multistudy(data, tmp_path / "exported")
        reloaded = load_multistudy(manifest_path)
        assert reloaded.feature_names == data.feature_names
        assert [s.id for s in reloaded.studies] == [s.id for s in data.studies]
        for a, b in zip(data.studies, reloaded.studies):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)

    def test_cells_are_shortest_repr(self, tmp_path):
        # Each cell is written as repr(float(v)) of the numpy value.
        x = np.array([[-0.0, 5e-324, 1e300], [1.0, 0.1, -2.5e-7],
                      [-1e300, 3.0, np.nextafter(1.0, 2.0)]])
        y = np.array([0.1, -0.0, 1e300 / 3])
        data = MultiStudy(studies=(Study(id="s1", x=x, y=y),),
                          feature_names=("a", "b", "c"))
        write_multistudy(data, tmp_path / "out")
        rows = [[repr(float(y[i]))] + [repr(float(v)) for v in x[i]]
                for i in range(3)]
        write_csv_atomic(tmp_path / "want.csv", ["response", "a", "b", "c"],
                         rows)
        got = (tmp_path / "out" / "s1.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert b"-0.0,5e-324,1e+300" in got

    def test_unequal_sample_sizes_round_trip(self, tmp_path, rng):
        from conftest import make_multistudy
        data, _ = make_multistudy(rng, n=12, p=4, k=3, unequal_n=True)
        manifest_path = write_multistudy(data, tmp_path / "exported")
        reloaded = load_multistudy(manifest_path)
        for a, b in zip(data.studies, reloaded.studies):
            assert a.n == b.n
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)

    def test_names_needing_quotes_round_trip(self, tmp_path):
        names = ("HLA-A,B", 'say "hi"', "two\nlines", "cr\rname", "plain")
        x = np.arange(15.0).reshape(3, 5) / 7
        data = MultiStudy(studies=(Study(id="s1", x=x, y=x.sum(axis=1)),
                                   Study(id="s2", x=-x, y=x[:, 0])),
                          feature_names=names)
        reloaded = load_multistudy(write_multistudy(data, tmp_path))
        assert reloaded.feature_names == names
        for a, b in zip(data.studies, reloaded.studies):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("study_id", ["../escaped", "a/b"])
    def test_study_id_that_is_a_path_rejected(self, tmp_path, study_id):
        x = np.arange(6.0).reshape(3, 2)
        data = MultiStudy(studies=(Study(id=study_id, x=x, y=x[:, 0]),),
                          feature_names=("g1", "g2"))
        with pytest.raises(InputError, match=re.escape(repr(study_id))):
            write_multistudy(data, tmp_path / "out")
        assert not list(tmp_path.rglob("*"))

    def test_study_id_that_is_not_a_string_rejected(self, tmp_path):
        # A manifest's study ids are strings, so id 0 would not reload.
        x = np.arange(6.0).reshape(3, 2)
        data = MultiStudy(studies=(Study(id=0, x=x, y=x[:, 0]),),
                          feature_names=("g1", "g2"))
        with pytest.raises(InputError, match="study id 0 must be a string"):
            write_multistudy(data, tmp_path / "out")
        assert not list(tmp_path.rglob("*"))

    def test_plain_study_ids_round_trip(self, tmp_path):
        x = np.arange(6.0).reshape(3, 2)
        data = MultiStudy(studies=(Study(id="cohort_a", x=x, y=x[:, 0]),
                                   Study(id="s 1", x=-x, y=x[:, 1])),
                          feature_names=("g1", "g2"))
        reloaded = load_multistudy(write_multistudy(data, tmp_path))
        assert [s.id for s in reloaded.studies] == ["cohort_a", "s 1"]
        assert np.array_equal(reloaded.studies[1].x, -x)

    def test_feature_name_with_outer_whitespace_rejected(self, tmp_path):
        x = np.arange(6.0).reshape(3, 2)
        data = MultiStudy(studies=(Study(id="s1", x=x, y=x[:, 0]),),
                          feature_names=("g0", " g1"))
        with pytest.raises(InputError, match=re.escape("' g1'")):
            write_multistudy(data, tmp_path / "out")
        assert not list(tmp_path.rglob("*"))

    def test_quoted_data_rows_read_back(self, tmp_path):
        rows = [["HLA-A,B", 1.5, 2], ['say "hi"', -0.25, 3],
                ["two\nlines", 1e-300, 4], ["g1", 0.5, 5]]
        write_csv_atomic(tmp_path / "r.csv", ["name", "t", "rank"], rows)
        with open(tmp_path / "r.csv", newline="", encoding="utf-8") as fh:
            read = list(csv.reader(fh))
        assert read == [["name", "t", "rank"],
                        *[[str(c) for c in row] for row in rows]]

    def test_unquoted_output_is_the_joined_cells(self, tmp_path, rng):
        from conftest import make_multistudy
        data, _ = make_multistudy(rng, n=6, p=5, k=2)
        manifest = write_multistudy(data, tmp_path)
        for study in data.studies:
            lines = [["response", *data.feature_names]]
            lines += [[repr(float(v)) for v in (study.y[i], *study.x[i])]
                      for i in range(study.n)]
            expected = "".join(",".join(cells) + "\n" for cells in lines)
            assert (manifest.parent / f"{study.id}.csv").read_bytes() \
                == expected.encode()
        header = ["a b", " c", "", "d-e", 7, None]
        rows = [[1, 2.5, "x y", "", -0.0, None], [], [""], ["", ""]]
        write_csv_atomic(tmp_path / "plain.csv", header, rows)
        expected = "".join(",".join(str(c) for c in row) + "\n"
                           for row in [header, *rows])
        assert (tmp_path / "plain.csv").read_text() == expected


def test_output_files_follow_umask(tmp_path, rng):
    from conftest import make_multistudy
    data, _ = make_multistudy(rng, n=5, p=3, k=2)
    old = os.umask(0o022)
    try:
        write_json_atomic(tmp_path / "result.json", {"a": 1})
        write_csv_atomic(tmp_path / "records.csv", ["a"], [[1]])
        manifest = write_multistudy(data, tmp_path / "exported")
    finally:
        os.umask(old)
    written = [tmp_path / "result.json", tmp_path / "records.csv", manifest,
               *manifest.parent.glob("*.csv")]
    assert len(written) == 5
    for path in written:
        assert stat.S_IMODE(path.stat().st_mode) == 0o644, path
    assert not list(tmp_path.rglob("*.tmp"))


def _joined_csv(header, rows):
    # write_csv_atomic's bytes as one join of every line: the reference
    # for its chunked writes.
    lines = [data_io._quoted_line([str(c) for c in header])]
    for row in rows:
        cells = [str(c) for c in row]
        line = ",".join(cells)
        if (line.count(",") > len(cells) - 1 or '"' in line
                or "\r" in line or "\n" in line):
            line = data_io._quoted_line(cells)
        lines.append(line)
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("chunk", [0, 50, data_io._CSV_CHUNK])
def test_chunked_csv_has_the_joined_bytes(tmp_path, monkeypatch, chunk):
    # Chunk 0 writes every line on its own, so the last write ends a line.
    monkeypatch.setattr(data_io, "_CSV_CHUNK", chunk)
    header = ["name", "HLA-A,B", 'say "hi"', "cr\rname"]
    rows = [["g1", 1.5, -0.0, 7], ["two\nlines", 1e-300, 2, None], [],
            [""], ["a,b", 'q"', 0.1, 3], *([[0.25, "x", 1e300, -1]] * 20)]
    write_csv_atomic(tmp_path / "t.csv", header, rows)
    assert (tmp_path / "t.csv").read_bytes() == _joined_csv(header, rows)


def test_csv_text_is_not_held_whole(tmp_path):
    # A study file of 100 rows of 2 001 floats, about 3.8 MB; a text held
    # whole, joined and encoded would take about three times that.
    x = np.random.default_rng(11).standard_normal((100, 2_001))
    header = ["response", *(f"g{j}" for j in range(2_000))]
    tracemalloc.start()
    try:
        write_csv_atomic(tmp_path / "wide.csv", header,
                         (x[i].tolist() for i in range(len(x))))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = (tmp_path / "wide.csv").read_bytes()
    assert written == _joined_csv(header, x.tolist())
    assert peak <= 1.5 * len(written), (peak, len(written))


def no_table_cache(monkeypatch):
    """Make every stored table a miss, so that every load parses every
    file."""
    monkeypatch.setattr(data_io, "_stored", lambda entry, tag: None)


class TestHeldOnce:
    # Each test loads serially (one usable CPU) and in forked readers (two),
    # parsing the files each time.
    @pytest.fixture(autouse=True)
    def parse_every_load(self, monkeypatch):
        no_table_cache(monkeypatch)

    @pytest.fixture
    def exported(self, tmp_path):
        setting = SimSetting(n=100, p=300, K=3, s0=3, beta_low=0.4,
                             beta_high=0.8, B=1, seed=7)
        data, _, _ = gen_instance(setting, 0)
        return data, write_multistudy(data, tmp_path)

    def test_loaded_studies_hold_their_data_once(self, exported, monkeypatch):
        _, manifest = exported
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            tracemalloc.start()
            try:
                loaded = load_multistudy(manifest)
                current, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            held = sum(s.x.nbytes + s.y.nbytes for s in loaded.studies)
            # A y that views its parsed table keeps the whole table alive,
            # which doubles what the load holds.
            assert all(s.y.base is None for s in loaded.studies)
            assert current <= 1.1 * held, (cpus, current, held)

    def test_layout_and_order_kept(self, exported, monkeypatch):
        data, manifest = exported
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            loaded = load_multistudy(manifest)
            assert [s.id for s in loaded.studies] == [s.id for s in data.studies]
            for a, b in zip(data.studies, loaded.studies):
                # numpy gathers the feature columns into a (p, n) buffer, so
                # x is column-major.
                assert b.x.strides == (8, 8 * b.n)
                assert np.array_equal(a.x, b.x)
                assert np.array_equal(a.y, b.y)


class TestWriteJson:
    def test_bytes_are_dumps_plus_newline(self, tmp_path):
        payload = {
            "gène": [None, True, 2 ** 70, -10 ** 30, -0.0, 5e-324,
                     float("nan"), float("inf"), 1.5],
            "\u65e5\u672c": {"z": [], "a": {}, "\U0001f9ec": "ä\n\"q\""},
            "nested": [[{"k": [1, [2, [3.25]]]}]],
        }
        write_json_atomic(tmp_path / "result.json", payload)
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "result.json").read_bytes() == expected.encode()

    def test_failure_partway_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "result.json"
        write_json_atomic(path, {"old": 1})
        before = path.read_bytes()
        records = [{"feature": j, "t": [0.5 * j] * 5} for j in range(2_000)]
        # sort_keys puts "z" last, so the set is reached after every record.
        payload = {"a": records, "z": {"deep": [1, {"bad": {1, 2}}]}}
        with pytest.raises(TypeError, match="set"):
            write_json_atomic(path, payload)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_generated_values_match_dumps(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        path = tmp_path / "result.json"

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(_json_payloads(st))
        def check(payload):
            try:
                expected = json.dumps(payload, indent=2, sort_keys=True)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    write_json_atomic(path, payload)
            else:
                write_json_atomic(path, payload)
                assert path.read_bytes() == (expected + "\n").encode()

        check()

    def test_large_payload_is_written_in_bounded_pieces(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(data_io, "_JSON_PIECES", 64)
        sizes = []
        replace_with = data_io._replace_with

        class Recorded:
            def __init__(self, fh):
                self._fh = fh

            def write(self, text):
                sizes.append(len(text))
                return self._fh.write(text)

        monkeypatch.setattr(
            data_io, "_replace_with",
            lambda path, write: replace_with(path,
                                             lambda fh: write(Recorded(fh))))
        records = [{"feature": j, "name": f"g{j}", "t": [0.5 * j] * 5,
                    "kept": j % 3 == 0} for j in range(2_000)]
        payload = {"result": {"features": records}}
        write_json_atomic(tmp_path / "result.json", payload)
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "result.json").read_bytes() == expected.encode()
        # A write holds at most 65 pieces, each under 200 characters here:
        # the longest is a record's list of five floats.
        assert sum(sizes) == len(expected)
        assert max(sizes) <= 65 * 200 < len(expected) // 20

    @pytest.mark.parametrize("shape", ["list", "dict", "deep"])
    def test_cycle_raises_and_leaves_the_old_file(self, tmp_path, shape):
        path = tmp_path / "result.json"
        write_json_atomic(path, {"old": 1})
        before = path.read_bytes()
        loop = [1.5]
        if shape == "list":
            loop.append(loop)
        elif shape == "dict":
            loop = {"a": 1, "self": None}
            loop["self"] = loop
        else:
            loop.append({"b": [{"c": loop}]})
        with pytest.raises(ValueError, match="Circular reference"):
            json.dumps(loop, indent=2, sort_keys=True)
        with pytest.raises(ValueError, match="Circular reference"):
            write_json_atomic(path, {"a": [1, 2], "z": loop})
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))


class Colour(enum.IntEnum):
    RED = 1
    HUGE = 2 ** 70


def _json_payloads(st):
    """Values json writes, and some it refuses: every float it spells
    apart, subclasses it converts by isinstance, non-BMP and control
    characters, tuples, empty containers and non-str keys."""
    text = st.text() | st.sampled_from(["", "\x00\x1f\x7f", "\U0001f9ec",
                                        "\u2028\ud7ff\ue000\uffff", '"\\/'])
    floats = st.floats() | st.sampled_from(
        [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, math.nan,
         math.inf, -math.inf])
    numbers = (st.integers() | st.sampled_from([2 ** 70, -2 ** 70])
               | floats | floats.map(np.float64) | st.sampled_from(Colour))
    scalars = st.none() | st.booleans() | numbers | text

    def containers(children):
        # Lists of one scalar type are joined at once. The keys of one
        # dict sort against each other: all strings, all numbers and
        # bools (NaN included), or a lone None.
        return (st.lists(children, max_size=6)
                | st.lists(children, max_size=4).map(tuple)
                | st.lists(floats) | st.lists(st.integers()) | st.lists(text)
                | st.dictionaries(text, children, max_size=6)
                | st.dictionaries(numbers | st.booleans(), children,
                                  max_size=3)
                | st.dictionaries(st.none(), children, max_size=1))

    values = st.recursive(scalars, containers, max_leaves=40)
    refused = st.sampled_from([frozenset({1}), b"bytes", np.int64(3),
                               np.bool_(True), 1 + 2j, Path("x")])
    mixed_keys = st.sampled_from([{"a": 1, 2: 3}, {None: 1, 0: 2},
                                  {(1,): 2}, {1.5: 1, "b": 2}])
    return values | st.tuples(values, refused | mixed_keys).map(list)


def test_alignment_compares_names_linearly(tmp_path, monkeypatch):
    # Counting string comparisons pins the cost of aligning a wide
    # manifest without timing it: a scan of the header list per feature
    # makes about p * p / 2 comparisons per study.
    p, k = 2_000, 2
    x = np.arange(3.0 * p).reshape(3, p)
    names = tuple(f"g{j}" for j in range(p))
    data = MultiStudy(studies=tuple(Study(id=f"s{i}", x=x + i, y=x[:, i])
                                    for i in range(k)),
                      feature_names=names)
    manifest = write_multistudy(data, tmp_path)
    comparisons = [0]

    class CountedName(str):
        __hash__ = str.__hash__

        def __eq__(self, other):
            comparisons[0] += 1
            return str.__eq__(self, other)

    read_table = data_io._read_table

    def counted_read_table(path, study_id, sha=None):
        header, values = read_table(path, study_id, sha)
        return [CountedName(h) for h in header], values

    monkeypatch.setattr(data_io, "_read_table", counted_read_table)
    # The count is taken in this process, so the files are read here.
    use_cpus(monkeypatch, 1)
    reloaded = load_multistudy(manifest)
    assert reloaded.feature_names == names
    assert comparisons[0] <= 4 * p * k


def _reference_read_table(path: Path, study_id: str) -> tuple[list[str], np.ndarray]:
    """The reader as it was before it parsed whole rows: every cell through
    ``float()`` and ``np.isfinite`` in reading order. Kept verbatim as the
    reference that ``data_io._read_table`` must match."""
    if not path.is_file():
        raise ManifestError(f"study {study_id!r}: data file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ManifestError(f"study {study_id!r}: {path} is empty") from None
        header = [h.strip() for h in header]
        if any(not h for h in header):
            raise ManifestError(f"study {study_id!r}: {path} has an empty column name")
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise ManifestError(
                f"study {study_id!r}: duplicate column names in {path}: {dupes}")
        rows = []
        for row_num, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ManifestError(
                    f"study {study_id!r}: row {row_num} has {len(row)} cells, "
                    f"expected {len(header)} ({path})")
            parsed = []
            for col_name, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:
                    raise ManifestError(
                        f"study {study_id!r}: malformed numeric {cell!r} at "
                        f"row {row_num}, column {col_name} ({path})") from None
                if not np.isfinite(value):
                    raise ManifestError(
                        f"study {study_id!r}: non-finite value at row "
                        f"{row_num}, column {col_name} ({path})")
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ManifestError(f"study {study_id!r}: {path} has no data rows")
    return header, np.asarray(rows, dtype=float)


def _outcome(read, path):
    try:
        header, values = read(path, "S")
    except Exception as exc:
        return type(exc), str(exc)
    return header, values.dtype, values.shape, values.tobytes()


OVER_FIELD_LIMIT = "1" * 200_001

CRAFTED = {
    "quoted_cells_and_header": '"g1","g 2",y\n"1.5",2,"-3e2"\n4,"5",6\n',
    "quoted_comma": 'a,b\n"1,5",2\n',
    "underscore_space_underflow": "a,b,c,d\n1_0, 2.5 ,1e-400,-0.0\n3,4,5,6\n",
    "overflow": "a,b\n1,2\n1,1e400\n",
    "inf": "a,b\n1,2\n1,inf\n",
    "minus_inf": "a,b\n-inf,2\n",
    "nan": "a,b\n1,2\n3,nan\n",
    "blank_line": "a,b\n1,2\n\n3,4\n",
    "trailing_blank_line": "a,b\n1,2\n3,4\n\n",
    "whitespace_line": "a,b\n1,2\n   \n3,4\n",
    "whitespace_line_one_column": "y\n1\n  \n2\n",
    "ragged_short": "a,b,c\n1,2,3\n4,5\n",
    "ragged_long": "a,b\n1,2\n3,4,5\n",
    "crlf": "a,b\r\n1,2\r\n3,4\r\n",
    "bare_cr": "a,b\r1,2\r3,4\r",
    "no_trailing_newline": "a,b\n1,2\n3,4",
    "header_only": "a,b\n",
    "empty": "",
    "empty_cell": "a,b\n1,\n",
    "comment_marker": "a,b\n#1,2\n",
    "header_padding": " a , b \n1,2\n",
    "duplicate_header": "a,b,a\n1,2,3\n",
    "nonfinite_then_malformed": "a,b\n1,2\n1,nan\n3,4\n5,x\n",
    "malformed_then_nonfinite": "a,b\n1,2\n5,x\n3,4\n1,nan\n",
    "nonfinite_then_malformed_same_row": "a,b,c\n1,inf,x\n",
    "malformed_then_nonfinite_same_row": "a,b,c\n1,x,inf\n",
    "short_row_after_nonfinite": "a,b\n1,inf\n3\n",
    "nonfinite_after_short_row": "a,b\n1,2\n3\n1,inf\n",
    "over_field_limit_after_nonfinite": f"a,b\n1,inf\n{OVER_FIELD_LIMIT},1\n",
    "overflowing_column_sum": "a,b\n1e308,1\n1e308,2\n-1e308,3\n",
    "infinities_cancel_in_column_sum": "a,b\n1,inf\n2,-inf\n",
    "single_column": "y\n1\n2.5\n-3\n",
    "quote_first_in_row_3": 'a,b\n1,2\n3,4\n"5",6\n7,8\n',
    "quoted_field_spans_two_lines": '"a\nb",c\n1,2\n3,4\n5,6\n',
    "crlf_one_quoted_row": 'a,b\r\n1,2\r\n"3",4\r\n5,6\r\n',
    "quoted_header_plain_data": '"g,1",y\n1,2\n3,4\n',
    "bare_quote_inside_field": 'a,b\n1,2\n1"2,3\n',
    "nul_in_cell": "a,b\n1,2\n3,4\x00\n",
    "last_line_bare_cr": "a,b\n1,2\n3,4\r",
    "only_a_blank_line": "a,b\n\n",
    "header_wider_than_rows": "a,b,c\n1,2\n3,4\n",
    "underscore_only": "a,b\n1_0,2\n3,4\n",
    "arabic_indic_digit": "a,b\n1,\u0662\n3,4\n",
    "form_feed_padding": "a,b\n\x0c1.5\x0c,2\n3,\x0c4\n",
    "no_break_space_padding": "a,b\n\xa01.5\xa0,2\n3,\xa04\n",
}


class TestReaderMatchesReference:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(CRAFTED))
    def test_same_array_or_same_error(self, tmp_path, name):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(CRAFTED[name].encode("utf-8"))
        outcome = _outcome(data_io._read_table, path)
        assert outcome == _outcome(_csv_reader_read_table, path)
        if CRAFTED[name].isascii():  # this reference reads the locale encoding
            assert outcome == _outcome(_reference_read_table, path)

    @pytest.mark.filterwarnings("error")
    def test_clean_fixture_bit_for_bit(self, tmp_path):
        setting = SimSetting(n=30, p=40, K=2, s0=3, beta_low=0.4,
                             beta_high=0.8, B=1, seed=7)
        data, _, _ = gen_instance(setting, 0)
        manifest = write_multistudy(data, tmp_path)
        for path in sorted(manifest.parent.glob("*.csv")):
            assert (_outcome(data_io._read_table, path)
                    == _outcome(_reference_read_table, path))

    def test_finiteness_checked_once_per_study(self, tmp_path, rng, monkeypatch):
        from conftest import make_multistudy
        data, _ = make_multistudy(rng, n=12, p=4, k=3)
        manifest = write_multistudy(data, tmp_path)
        calls = []
        all_finite = data_io._all_finite

        def counted(values):
            calls.append(1)
            return all_finite(values)

        monkeypatch.setattr(data_io, "_all_finite", counted)
        # The calls are counted in this process, so the files are read here.
        use_cpus(monkeypatch, 1)
        load_multistudy(manifest)
        assert len(calls) == 3


def _csv_reader_read_table(path: Path, study_id: str) -> tuple[list[str], np.ndarray]:
    """The reader as it was while ``csv.reader`` tokenized every line. Kept
    verbatim as the reference for the tokenizer of ``data_io._read_table``."""
    if not path.is_file():
        raise ManifestError(f"study {study_id!r}: data file not found: {path}")
    header: list[str] = []
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise ManifestError(
                    f"study {study_id!r}: {path} is empty") from None
            header = [h.strip() for h in header]
            if any(not h for h in header):
                raise ManifestError(
                    f"study {study_id!r}: {path} has an empty column name")
            if len(set(header)) != len(header):
                dupes = sorted(h for h, n in Counter(header).items() if n > 1)
                raise ManifestError(
                    f"study {study_id!r}: duplicate column names in {path}: {dupes}")
            for row in reader:
                if len(row) != len(header):
                    _raise_first_fault(header, [*rows, row], path, study_id)
                try:
                    rows.append(list(map(float, row)))
                except ValueError:
                    _raise_first_fault(header, [*rows, row], path, study_id)
        except csv.Error as exc:
            # A fault in a row read before the unreadable one comes first,
            # as it would were each cell checked as it is read.
            _raise_first_fault(header, rows, path, study_id)
            raise ManifestError(
                f"study {study_id!r}: {path} line {reader.line_num}: {exc}"
            ) from None
        except UnicodeDecodeError as exc:
            # The decoder reads ahead in blocks, so reader.line_num need
            # not be the line that holds the bad byte.
            _raise_first_fault(header, rows, path, study_id)
            raise ManifestError(
                f"study {study_id!r}: {path} is not valid UTF-8 (byte "
                f"0x{exc.object[exc.start]:02x}: {exc.reason})") from None
    if not rows:
        raise ManifestError(f"study {study_id!r}: {path} has no data rows")
    values = np.asarray(rows, dtype=float)
    if not np.isfinite(values).all():
        _raise_first_fault(header, rows, path, study_id)
    return header, values


def _raise_first_fault(header: list[str], rows: list, path: Path,
                       study_id: str) -> None:
    """Raise the error for the first bad row or cell of ``rows``, in
    reading order, if there is one. Rows may hold floats already parsed
    or the raw strings of the row that failed to parse."""
    for row_num, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ManifestError(
                f"study {study_id!r}: row {row_num} has {len(row)} cells, "
                f"expected {len(header)} ({path})")
        for col_name, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                raise ManifestError(
                    f"study {study_id!r}: malformed numeric {cell!r} at "
                    f"row {row_num}, column {col_name} ({path})") from None
            if not math.isfinite(value):
                raise ManifestError(
                    f"study {study_id!r}: non-finite value at row "
                    f"{row_num}, column {col_name} ({path})")


FUZZ_TOKENS = ["1", "2", ".5", "e3", "-", ",", '"', "\n", "\r", "\r\n", " ",
               "x", "\0", "inf", "_"]
CELL_WEIGHTS = [20, 20, 8, 3, 3, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1]


def _fuzz_files(seed, count):
    """Short random CSV files over ``FUZZ_TOKENS``: half are free token
    strings, half are a plain header over rows of mostly numeric cells,
    some quoted. Those rows have two cells, or in one file of four twelve
    cells, few of them fuzzed or quoted, so that at a small field limit
    lines are longer than the limit while their fields are not. A third start
    with a byte-order mark and a few end with a byte that is not UTF-8."""
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.5:
            text = "".join(rng.choices(FUZZ_TOKENS, k=rng.randint(0, 30)))
        else:
            width = rng.choice([2, 2, 2, 12])
            lines = [",".join("abcdefghijkl"[:width])]
            for _ in range(rng.randint(1, 5)):
                cells = ["".join(rng.choices(FUZZ_TOKENS, CELL_WEIGHTS,
                                             k=rng.randint(1, 3)))
                         if width == 2 or rng.random() < 0.05
                         else rng.choice(["1", "-2.5", "3e-2"])
                         for _ in range(width)]
                lines.append(",".join(
                    f'"{c}"' if rng.random() < 0.3 / width else c
                    for c in cells))
            text = "".join(line + rng.choice(["\n", "\r", "\r\n"])
                           for line in lines)
        data = text.encode()
        if rng.random() < 0.3:
            data = b"\xef\xbb\xbf" + data
        if rng.random() < 0.05:
            data += b"\xff"
        yield data


class TestSplitMatchesCsvModule:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("limit", [8, None])
    def test_fuzzed_files_same_array_or_same_error(self, tmp_path, limit):
        path = tmp_path / "f.csv"
        old = csv.field_size_limit()
        if limit is not None:
            csv.field_size_limit(limit)
        try:
            for data in _fuzz_files(seed=20240811, count=1_500):
                path.write_bytes(data)
                assert (_outcome(data_io._read_table, path)
                        == _outcome(_csv_reader_read_table, path)), data
        finally:
            csv.field_size_limit(old)

    def test_plain_lines_skip_the_csv_module(self, tmp_path, monkeypatch, rng):
        calls = [0]
        reader = csv.reader

        def counted(*args, **kwargs):
            calls[0] += 1
            return reader(*args, **kwargs)

        monkeypatch.setattr(data_io.csv, "reader", counted)
        x = np.arange(15.0).reshape(3, 5) / 7
        plain = MultiStudy(studies=(Study(id="s1", x=x, y=x.sum(axis=1)),
                                    Study(id="s2", x=-x, y=x[:, 0])),
                           feature_names=("g1", "g2", "g3", "g4", "g5"))
        load_multistudy(write_multistudy(plain, tmp_path / "plain"))
        assert calls[0] == 0
        quoted = MultiStudy(studies=(Study(id="s1", x=x, y=x[:, 1]),),
                            feature_names=("HLA-A,B", "g2", "g3", "g4", "g5"))
        reloaded = load_multistudy(write_multistudy(quoted, tmp_path / "quoted"))
        assert calls[0] == 1
        assert reloaded.feature_names == quoted.feature_names
        assert np.array_equal(reloaded.studies[0].x, x)
        # p = 8 000 gives lines longer than the field limit, of short fields.
        w = rng.standard_normal((3, 8_000))
        wide = MultiStudy(studies=(Study(id="s1", x=w, y=w.sum(axis=1)),),
                          feature_names=tuple(f"g{j}" for j in range(8_000)))
        path = write_multistudy(wide, tmp_path / "wide").parent / "s1.csv"
        lines = path.read_text().splitlines()[1:]
        assert min(map(len, lines)) > csv.field_size_limit()
        outcome = _outcome(data_io._read_table, path)
        assert calls[0] == 1
        assert outcome == _outcome(_csv_reader_read_table, path)
        assert outcome[3] == np.column_stack([w.sum(axis=1), w]).tobytes()


class TestUnreadableFiles:
    def test_cell_over_field_limit(self, tmp_path):
        write(tmp_path / "a.csv", f"g1,y\n1,2\n3,{OVER_FIELD_LIMIT}\n4,5\n")
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"}])
        with pytest.raises(ManifestError,
                           match=r"study 'A': .*a\.csv line 3: field larger"):
            load_multistudy(manifest)

    def test_field_at_and_over_limit_on_a_quote_free_line(self, tmp_path):
        limit = csv.field_size_limit()
        write(tmp_path / "a.csv",
              f"g1,y\n1,2\n{'0' * limit},3\n4,{'0' * (limit + 1)}\n")
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"}])
        with pytest.raises(ManifestError, match=re.escape(
                f"a.csv line 4: field larger than field limit ({limit})")):
            load_multistudy(manifest)

    def test_field_over_limit_after_multiline_record(self, tmp_path):
        # float() strips the line break inside the quoted cell, so lines
        # 2-3 are one good row and the fault is on line 4.
        limit = csv.field_size_limit()
        write(tmp_path / "a.csv",
              f'g1,y\n"1\n",2\n3,{"0" * (limit + 1)}\n')
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"}])
        with pytest.raises(ManifestError, match=re.escape(
                f"a.csv line 4: field larger than field limit ({limit})")):
            load_multistudy(manifest)

    def test_field_over_limit_after_multiline_header(self, tmp_path):
        # _reference_read_table lets csv.Error out unwrapped, so this case
        # is pinned against the csv.reader reference only.
        path = write(tmp_path / "a.csv", f'"a\nb",c\n1,2\n3,{OVER_FIELD_LIMIT}\n')
        outcome = _outcome(data_io._read_table, path)
        assert outcome == _outcome(_csv_reader_read_table, path)
        assert outcome[0] is ManifestError and "a.csv line 4: field larger" in outcome[1]

    def test_study_not_utf8(self, tmp_path):
        (tmp_path / "a.csv").write_bytes(b"g1,y\n1,2\n3,\xff4\n")
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"}])
        with pytest.raises(ManifestError,
                           match=r"study 'A': .*a\.csv is not valid UTF-8 "
                                 r"\(byte 0xff"):
            load_multistudy(manifest)

    def test_not_utf8_reported_before_any_cell(self, tmp_path):
        # The bad byte lies past the decoder's first 8 KiB block, and after
        # the malformed cell on row 2.
        (tmp_path / "a.csv").write_bytes(
            b"g1,y\n1,2\n3,x\n" + b"5,6\n" * 3_000 + b"7,\xff8\n")
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"}])
        with pytest.raises(ManifestError,
                           match=r"a\.csv is not valid UTF-8 \(byte 0xff"):
            load_multistudy(manifest)

    def test_each_study_file_opened_once(self, tmp_path, monkeypatch):
        texts = {"plain.csv": "g1,y\n1,2\n3,4\n",
                 "quoted.csv": 'g1,y\n1,"2"\n3,4\n',
                 "bad_last_row.csv": "g1,y\n1,2\n3,4\n5,x\n"}
        opened = Counter()

        def counted(file, *args, **kwargs):
            opened[Path(file).name] += 1
            return open(file, *args, **kwargs)

        monkeypatch.setattr(data_io, "open", counted, raising=False)
        data_io._read_table(write(tmp_path / "plain.csv", texts["plain.csv"]), "A")
        data_io._read_table(write(tmp_path / "quoted.csv", texts["quoted.csv"]), "B")
        with pytest.raises(ManifestError, match="malformed numeric 'x' at row 3"):
            data_io._read_table(
                write(tmp_path / "bad_last_row.csv", texts["bad_last_row.csv"]), "C")
        assert opened == Counter(dict.fromkeys(texts, 1))

    def test_manifest_not_utf8(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_bytes(b'{"entries": [], "x": "\xe9"}')
        with pytest.raises(ManifestError, match="is not valid UTF-8"):
            load_manifest(path)


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as spreadsheet programs write it,
    is not part of the first column name or of the JSON document."""

    def test_study_csv_with_bom(self, tmp_path):
        (tmp_path / "a.csv").write_bytes(
            b"\xef\xbb\xbfg1,x1,x2\n1,2,3\n4,5,7\n7,8,8\n")
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv", "response_column": "g1"}])
        data = load_multistudy(manifest)
        assert data.feature_names == ("x1", "x2")
        assert np.array_equal(data.studies[0].y, [1.0, 4.0, 7.0])

    def test_manifest_with_bom(self, tmp_path):
        write(tmp_path / "a.csv", "g1,y\n1,2\n3,4\n5,7\n")
        path = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "a.csv", "response_column": "y"}])
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_manifest(path).entries[0].study_id == "A"


def test_non_ascii_names_round_trip_under_ascii_locale(tmp_path):
    # Under LC_ALL=C with UTF-8 mode off the locale encoding is ASCII, so
    # a file opened without an explicit encoding cannot hold "gène".
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from multiscreen import MultiStudy, Study, load_multistudy
        from multiscreen.data_io import write_multistudy
        x = np.arange(8.0).reshape(4, 2)
        data = MultiStudy(studies=(Study(id="s1", x=x, y=x[:, 0] ** 2),),
                          feature_names=("g\\u00e8ne", "g2"))
        back = load_multistudy(write_multistudy(data, sys.argv[1]))
        assert back.feature_names == data.feature_names, back.feature_names
        assert np.array_equal(back.studies[0].x, x)
    """)
    src = str(Path(multiscreen.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.pop("PYTHONIOENCODING", None)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _load_error(manifest):
    with pytest.raises(Exception) as raised:
        load_multistudy(manifest)
    return raised.type, str(raised.value)


forked = pytest.mark.skipif(not hasattr(os, "fork"),
                            reason="the forked readers need os.fork")

GOOD = "g1,g2,y\n1,2,3\n4,5,6\n7,8,9\n"
# Study files by role; a manifest lists studies A, B, C, ... in order.
FAULTS = {
    "missing_file": None,
    "malformed": "g1,g2,y\n1,2,3\n4,x,6\n",
    "not_utf8": b"g1,g2,y\n1,2,3\n4,\xff5,6\n",
    "no_response": "g1,g2,z\n1,2,3\n4,5,6\n",
    "ragged": "g1,g2,y\n1,2,3\n4,5\n",
}


def write_studies(tmp_path, roles):
    entries = []
    for i, role in enumerate(roles):
        name = f"s{i}.csv"
        text = GOOD if role == "good" else FAULTS[role]
        if isinstance(text, str):
            write(tmp_path / name, text)
        elif text is not None:
            (tmp_path / name).write_bytes(text)
        entries.append({"study_id": "ABCDEFG"[i], "data_path": name,
                        "response_column": "y"})
    return make_manifest(tmp_path, entries)


class TestForkedReaders:
    # These tests load the same files several times, each time through the
    # readers.
    @pytest.fixture(autouse=True)
    def parse_every_load(self, monkeypatch):
        no_table_cache(monkeypatch)

    @pytest.mark.parametrize("roles, expected", [
        (("good", "missing_file", "good"), "study 'B': data file not found"),
        (("good", "good", "malformed"), "study 'C': malformed numeric 'x'"),
        (("good", "not_utf8", "malformed"),
         "study 'B': .*s1.csv is not valid UTF-8"),
        (("no_response", "good", "malformed"), "study 'A': response column"),
        (("good", "malformed", "no_response"), "study 'B': malformed"),
        (("good", "good", "good", "no_response", "ragged"),
         "study 'D': response column"),
        (("good", "good", "good", "ragged", "missing_file"),
         "study 'D': row 2 has 2 cells"),
    ])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_first_failing_entry_raises_the_serial_error(
            self, tmp_path, monkeypatch, roles, expected, cpus):
        manifest = write_studies(tmp_path, roles)
        use_cpus(monkeypatch, 1)
        serial = _load_error(manifest)
        assert serial[0] is ManifestError and re.match(expected, serial[1])
        use_cpus(monkeypatch, cpus)
        assert _load_error(manifest) == serial
        assert_no_child_left()

    def test_one_usable_cpu_reads_serially(self, tmp_path, monkeypatch):
        manifest = write_studies(tmp_path, ["good"] * 3)

        def no_fork():
            raise AssertionError("forked with one usable CPU")

        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        use_cpus(monkeypatch, 1)
        assert load_multistudy(manifest).k == 3

    @forked
    def test_forked_and_serial_loads_are_bit_identical(self, tmp_path,
                                                       monkeypatch):
        # The benchmark's manifest instance: setting 2, seed 20240811, rep 0.
        data, _, _ = gen_instance(SimSetting.preset(2, seed=20240811), 0)
        manifest = write_multistudy(data, tmp_path)
        loads = {}
        for cpus in (1, 2, 5):
            use_cpus(monkeypatch, cpus)
            loads[cpus] = load_multistudy(manifest)
        assert_no_child_left()
        serial = loads.pop(1)
        assert serial.feature_names == data.feature_names
        for loaded in loads.values():
            assert loaded.feature_names == serial.feature_names
            for a, b in zip(serial.studies, loaded.studies):
                assert a.id == b.id
                for u, v in ((a.x, b.x), (a.y, b.y)):
                    assert v.dtype == np.dtype(np.float64)
                    assert v.strides == u.strides
                    assert v.tobytes() == u.tobytes()

    @forked
    def test_no_child_outlives_a_load(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 2)
        # Tables of 120 kB fill a pipe, so children block while writing.
        rng = np.random.default_rng(3)
        header = ["y", *(f"g{j}" for j in range(49))]
        entries = []
        for i in range(6):
            write_csv_atomic(tmp_path / f"s{i}.csv", header,
                             rng.normal(size=(300, 50)).tolist())
            entries.append({"study_id": f"s{i}", "data_path": f"s{i}.csv",
                            "response_column": "y"})
        manifest = make_manifest(tmp_path, entries)
        assert load_multistudy(manifest).k == 6
        assert_no_child_left()

        # The caller raises while every child still has tables to send;
        # the traceback, held here, keeps the loader's frame alive.
        entries[0]["response_column"] = "absent"
        manifest = make_manifest(tmp_path, entries)
        with pytest.raises(ManifestError,
                           match="study 's0': response column") as raised:
            load_multistudy(manifest)
        assert_no_child_left()
        del raised

        # A child's own error.
        entries[0]["response_column"] = "y"
        manifest = make_manifest(tmp_path, entries)
        write(tmp_path / "s3.csv", "y,g0\n1,x\n")
        with pytest.raises(ManifestError, match="study 's3': malformed"):
            load_multistudy(manifest)
        assert_no_child_left()

        # A child that dies while reading.
        read_table = data_io._read_table

        def dies_on_s4(path, study_id, sha):
            if study_id == "s4":
                os._exit(9)
            return read_table(path, study_id, sha)

        write_csv_atomic(tmp_path / "s3.csv", header, [[1.0] * 50] * 3)
        monkeypatch.setattr(data_io, "_read_table", dies_on_s4)
        with pytest.raises(RuntimeError,
                           match="study 's4': the process reading .* ended"):
            load_multistudy(manifest)
        assert_no_child_left()

    @forked
    def test_generator_closed_mid_iteration_reaps_children(self, tmp_path,
                                                           monkeypatch):
        use_cpus(monkeypatch, 3)
        manifest = load_manifest(write_studies(tmp_path, ["good"] * 5))
        tables = data_io._read_tables(manifest.entries)
        header, values = next(tables)
        assert header == ["g1", "g2", "y"] and values.shape == (3, 3)
        tables.close()
        assert_no_child_left()


class TestForkedWriters:
    @forked
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_failing_study_raises_and_leaves_no_temporary_file(
            self, tmp_path, monkeypatch, rng, cpus):
        from conftest import make_multistudy
        data, _ = make_multistudy(rng, n=40, p=30, k=4)
        ids = [s.id for s in data.studies]
        target = tmp_path / f"{ids[1]}.csv"
        target.mkdir()
        (target / "kept").write_text("x")
        use_cpus(monkeypatch, cpus)
        with pytest.raises(IsADirectoryError,
                           match=re.escape(str(target))) as raised:
            write_multistudy(data, tmp_path)
        assert raised.value.filename2 == str(target)
        assert_no_child_left()
        assert list(tmp_path.glob("*.tmp")) == []
        assert not (tmp_path / "manifest.json").exists()
        assert (target / "kept").read_text() == "x"
        # Every other study is still written, in either mode.
        assert sorted(p.name for p in tmp_path.glob("*.csv")) \
            == sorted(f"{i}.csv" for i in ids)

    @forked
    def test_writer_that_dies_raises_runtime_error(self, tmp_path,
                                                   monkeypatch, rng):
        from conftest import make_multistudy
        data, _ = make_multistudy(rng, n=5, p=3, k=3)
        write_csv = data_io.write_csv_atomic

        def dies_on_s2(path, header, rows):
            if Path(path).name == "s2.csv":
                os._exit(9)
            write_csv(path, header, rows)

        monkeypatch.setattr(data_io, "write_csv_atomic", dies_on_s2)
        use_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="study 's2': the process "
                           "writing .*s2.csv ended before it finished"):
            write_multistudy(data, tmp_path)
        assert_no_child_left()
        assert not (tmp_path / "manifest.json").exists()

    @forked
    @pytest.mark.parametrize("case", ["setting2", "quoted", "one_study"])
    def test_forked_export_has_the_in_process_bytes(self, tmp_path,
                                                    monkeypatch, case):
        from test_forked import count_forks
        if case == "setting2":
            data, _, _ = gen_instance(
                SimSetting.preset(2, p=120, seed=20240811), 0)
        else:
            names = ("HLA-A,B", 'say "hi"', "two\nlines", "cr\rname",
                     "plain")
            x = np.arange(15.0).reshape(3, 5) / 7
            studies = (Study(id="s1", x=x, y=x.sum(axis=1)),
                       Study(id="s2", x=-x, y=x[:, 0]))
            data = MultiStudy(studies=studies[:1 if case == "one_study"
                                              else 2],
                              feature_names=names)
        digests = {}
        for cpus in (1, 3):
            use_cpus(monkeypatch, cpus)
            forks = count_forks(monkeypatch)
            out = tmp_path / str(cpus)
            write_multistudy(data, out)
            workers = min(data.k, cpus)
            assert len(forks) == (workers if workers > 1 else 0)
            monkeypatch.undo()
            digests[cpus] = {p.name: hashlib.sha256(p.read_bytes()).digest()
                             for p in out.iterdir()}
        assert_no_child_left()
        assert len(digests[1]) == data.k + 1
        assert digests[3] == digests[1]


def cache_entries(directory):
    cache = directory / ".multiscreen-cache"
    return sorted(p.name for p in cache.iterdir()) if cache.is_dir() else []


def count_parses(monkeypatch):
    """Count ``_read_table`` calls, reading in this process, where the
    count is taken."""
    use_cpus(monkeypatch, 1)
    parsed = []
    read_table = data_io._read_table

    def counted(path, study_id, sha=None):
        parsed.append(study_id)
        return read_table(path, study_id, sha)

    monkeypatch.setattr(data_io, "_read_table", counted)
    return parsed


class TestTableCache:
    def test_second_load_is_the_first_bit_for_bit_unparsed(self, tmp_path,
                                                           monkeypatch):
        # The benchmark's manifest instance: setting 2, seed 20240811, rep 0.
        data, _, _ = gen_instance(SimSetting.preset(2, seed=20240811), 0)
        manifest = write_multistudy(data, tmp_path)
        first = load_multistudy(manifest)
        assert_no_child_left()
        digests = {f"{s.id}.csv": hashlib.sha256(
            (tmp_path / f"{s.id}.csv").read_bytes()).hexdigest()
            for s in data.studies}
        tag = data_io._cache_tag()
        assert cache_entries(tmp_path) == sorted(
            f"{name}.{digest}.{tag}.npz" for name, digest in digests.items())

        def no_fork():
            raise AssertionError("forked on a warm load")

        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        parsed = count_parses(monkeypatch)
        use_cpus(monkeypatch, 5)
        second = load_multistudy(manifest)
        assert parsed == []
        assert second.feature_names == first.feature_names
        for a, b in zip(first.studies, second.studies):
            assert a.id == b.id
            for u, v in ((a.x, b.x), (a.y, b.y)):
                assert v.dtype == u.dtype == np.dtype(np.float64)
                assert v.strides == u.strides
                assert v.tobytes() == u.tobytes()

    def test_edited_file_misses_and_leaves_one_entry(self, tmp_path,
                                                     monkeypatch):
        manifest = write_studies(tmp_path, ["good", "good"])
        load_multistudy(manifest)
        edited = GOOD.replace("4,5,6", "4,5.5,6")
        write(tmp_path / "s1.csv", edited)
        parsed = count_parses(monkeypatch)
        loaded = load_multistudy(manifest)
        assert parsed == ["B"]
        assert loaded.studies[1].x[1].tolist() == [4.0, 5.5]
        digest = hashlib.sha256(edited.encode()).hexdigest()
        assert [e for e in cache_entries(tmp_path) if e.startswith("s1.")] \
            == [f"s1.csv.{digest}.{data_io._cache_tag()}.npz"]

    def test_entry_of_another_tag_is_replaced(self, tmp_path):
        # An entry written under an older naming, with the format name as
        # its tag, goes when the file's next entry is stored.
        manifest = write_studies(tmp_path, ["good", "good"])
        load_multistudy(manifest)
        cache = tmp_path / ".multiscreen-cache"
        (old,) = [e for e in cache_entries(tmp_path) if e.startswith("s1.")]
        (cache / old).rename(cache / f"{old.rsplit('.', 2)[0]}.v1.npz")
        edited = GOOD.replace("4,5,6", "4,5.5,6")
        write(tmp_path / "s1.csv", edited)
        load_multistudy(manifest)
        digest = hashlib.sha256(edited.encode()).hexdigest()
        assert [e for e in cache_entries(tmp_path) if e.startswith("s1.")] \
            == [f"s1.csv.{digest}.{data_io._cache_tag()}.npz"]

    @pytest.mark.parametrize("damage", ["truncated", "empty", "not_npz",
                                        "float32"])
    def test_damaged_entry_is_parsed_and_rewritten(self, tmp_path,
                                                   monkeypatch, damage):
        manifest = write_studies(tmp_path, ["good", "good"])
        first = load_multistudy(manifest)
        (name,) = [e for e in cache_entries(tmp_path) if e.startswith("s0.")]
        entry = tmp_path / ".multiscreen-cache" / name
        whole = entry.read_bytes()
        if damage == "float32":
            with np.load(entry) as npz:
                header = json.loads(npz["header"].tobytes())
                values = npz["values"]
            with open(entry, "wb") as fh:
                np.savez(fh, header=np.frombuffer(
                    json.dumps(header).encode(), dtype=np.uint8),
                         values=values.astype(np.float32))
        else:
            entry.write_bytes({"truncated": whole[:len(whole) // 2],
                               "empty": b"",
                               "not_npz": b"g1,g2,y\n"}[damage])
        parsed = count_parses(monkeypatch)
        again = load_multistudy(manifest)
        assert parsed == ["A"]
        assert entry.read_bytes() == whole
        for a, b in zip(first.studies, again.studies):
            assert a.x.tobytes() == b.x.tobytes()
            assert a.y.tobytes() == b.y.tobytes()
        assert len(cache_entries(tmp_path)) == 2
        assert not list((tmp_path / ".multiscreen-cache").glob("*.tmp"))

    @forked
    def test_damaged_entries_go_to_the_readers(self, tmp_path, monkeypatch):
        # A damaged entry is a miss like any other: its file is parsed by
        # a forked reader, not in this process.
        from test_forked import count_forks
        use_cpus(monkeypatch, 2)
        manifest = write_studies(tmp_path, ["good"] * 5)
        first = load_multistudy(manifest)
        cache = tmp_path / ".multiscreen-cache"
        damaged = [cache / e for e in cache_entries(tmp_path)
                   if e.startswith(("s1.", "s3."))]
        wholes = [entry.read_bytes() for entry in damaged]
        for entry in damaged:
            entry.write_bytes(b"")
        forks = count_forks(monkeypatch)
        again = load_multistudy(manifest)
        assert len(forks) == 2
        assert [entry.read_bytes() for entry in damaged] == wholes
        assert list(cache.glob("*.tmp")) == []
        assert_no_child_left()
        for a, b in zip(first.studies, again.studies):
            assert a.x.tobytes() == b.x.tobytes()
            assert a.y.tobytes() == b.y.tobytes()

    def test_cache_path_that_is_a_regular_file(self, tmp_path, monkeypatch):
        manifest = write_studies(tmp_path, ["good", "good"])
        write(tmp_path / ".multiscreen-cache", "not a directory\n")
        parsed = count_parses(monkeypatch)
        for _ in range(2):
            loaded = load_multistudy(manifest)
            assert loaded.k == 2
            assert loaded.studies[0].x.tolist() == [[1, 2], [4, 5], [7, 8]]
        assert parsed == ["A", "B"] * 2
        assert (tmp_path / ".multiscreen-cache").read_text() \
            == "not a directory\n"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_parse_error_stores_nothing(self, tmp_path, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        manifest = write_studies(tmp_path, ["good", "malformed", "good"])
        first = _load_error(manifest)
        assert first[0] is ManifestError
        assert re.match("study 'B': malformed numeric 'x'", first[1])
        assert not [e for e in cache_entries(tmp_path) if e.startswith("s1.")]
        assert _load_error(manifest) == first
        assert not [e for e in cache_entries(tmp_path) if e.startswith("s1.")]
        assert_no_child_left()

    def test_header_round_trips(self, tmp_path, monkeypatch):
        names = ["HLA-A,B", 'say "hi"', "gène 日本"]
        # Python 3.10's csv module rejects a NUL; 3.11's reads it into the
        # name, and numpy's fixed-width strings would drop it at the end.
        if sys.version_info >= (3, 11):
            names.append("nul\0")
        header = ["y", *names]
        write_csv_atomic(tmp_path / "s0.csv", header,
                         [[float(i + j) for j in range(len(header))]
                          for i in range(3)])
        manifest = make_manifest(tmp_path, [
            {"study_id": "A", "data_path": "s0.csv", "response_column": "y"}])
        first = load_multistudy(manifest)
        assert first.feature_names == tuple(names)
        parsed = count_parses(monkeypatch)
        second = load_multistudy(manifest)
        assert parsed == []
        assert second.feature_names == tuple(names)
        (name,) = cache_entries(tmp_path)
        with np.load(tmp_path / ".multiscreen-cache" / name) as npz:
            stored = json.loads(npz["header"].tobytes()), npz["values"]
        expected = data_io._read_table(tmp_path / "s0.csv", "A")
        assert stored[0] == expected[0] == header
        assert stored[1].tobytes() == expected[1].tobytes()

    def test_entry_under_another_tag_is_not_read(self, tmp_path, monkeypatch):
        # An entry stored by another parser (another Python, numpy or
        # package version, or another csv field size limit) has another
        # tag; it is not read, and the new entry replaces it.
        manifest = write_studies(tmp_path, ["good", "good"])
        with monkeypatch.context() as patched:
            patched.setattr(data_io, "_cache_tag", lambda: "0" * 16)
            load_multistudy(manifest)
        assert [e.rsplit(".", 2)[1] for e in cache_entries(tmp_path)] \
            == ["0" * 16] * 2
        parsed = count_parses(monkeypatch)
        load_multistudy(manifest)
        assert parsed == ["A", "B"]
        assert [e.rsplit(".", 2)[1] for e in cache_entries(tmp_path)] \
            == [data_io._cache_tag()] * 2

    @pytest.mark.parametrize("change", ["format", "package", "python",
                                        "numpy", "field_size_limit"])
    def test_tag_names_what_the_parse_depends_on(self, monkeypatch, change):
        tag = data_io._cache_tag()
        if change == "field_size_limit":
            limit = csv.field_size_limit(1000)
            try:
                assert data_io._cache_tag() != tag
            finally:
                csv.field_size_limit(limit)
            return
        target, name, value = {
            "format": (data_io, "_CACHE_FORMAT", "v0"),
            "package": (data_io, "__version__", "0.0.0"),
            "python": (data_io.sys, "version_info", (3, 0, 0)),
            "numpy": (data_io.np, "__version__", "0.0.0")}[change]
        monkeypatch.setattr(target, name, value)
        assert data_io._cache_tag() != tag

    def test_parser_source_is_pinned_to_the_format(self):
        # If this fails, _read_table or a function it calls has changed.
        # When the change can alter a table read from given bytes, bump
        # _CACHE_FORMAT, so that no entry stored by the old parser is read,
        # and pin the new digest under the new format.
        source = "".join(inspect.getsource(f) for f in (
            data_io._read_table, data_io._split_on_commas,
            data_io._all_finite))
        assert {data_io._CACHE_FORMAT:
                hashlib.sha256(source.encode()).hexdigest()} == {
            "v1": "776784872cb5ad2a7e862d85bc53b83a"
                  "af6535b13083240fffa4acde4e761ef5"}


def test_unreadable_data_file_is_a_manifest_error(tmp_path, monkeypatch):
    manifest = write_studies(tmp_path, ["good", "good"])
    use_cpus(monkeypatch, 1)

    def refuse(file, *args, **kwargs):
        if Path(file).name == "s1.csv":
            raise PermissionError(13, "Permission denied", str(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(data_io, "open", refuse, raising=False)
    with pytest.raises(ManifestError, match=r"study 'B': cannot read "
                       r".*s1\.csv: .*Permission denied"):
        load_multistudy(manifest)


def test_first_load_reads_each_file_once(tmp_path, monkeypatch):
    # Without a cache directory nothing is hashed before the parse: each
    # file is opened once, by its reader, which hashes what it decodes.
    manifest = write_studies(tmp_path, ["good", "good", "good"])
    use_cpus(monkeypatch, 1)
    opened = Counter()

    def counted(file, *args, **kwargs):
        opened[Path(file).name] += 1
        return open(file, *args, **kwargs)

    monkeypatch.setattr(data_io, "open", counted, raising=False)
    load_multistudy(manifest)
    assert {name: n for name, n in opened.items() if name.endswith(".csv")} \
        == {"s0.csv": 1, "s1.csv": 1, "s2.csv": 1}
    assert len(cache_entries(tmp_path)) == 3
