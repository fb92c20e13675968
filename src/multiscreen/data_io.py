"""Manifest-driven ingestion of user-supplied study tables and atomic
result emission.

A manifest is a JSON document::

    {"entries": [{"study_id": "...", "data_path": "...",
                  "response_column": "..."}, ...],
     "feature_columns": ["g1", "g2", ...]}        # optional

Each data file is a CSV with a header row and one numeric row per
observation, split into cells as Python's ``csv`` module splits them: a
line with no double quote is split on its commas, and a record that holds
one is read by ``csv.reader``. Data paths are resolved relative to the
manifest location.
When ``feature_columns`` is absent the feature set is the intersection of
the studies' non-response columns, in first-study order, and a warning
lists anything dropped.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import InputError, ManifestError
from .screening import MultiStudy, Study

__all__ = [
    "ManifestEntry",
    "StudyManifest",
    "load_manifest",
    "load_multistudy",
    "write_multistudy",
    "write_json_atomic",
    "write_csv_atomic",
]


@dataclass(frozen=True)
class ManifestEntry:
    study_id: str
    data_path: Path
    response_column: str


@dataclass(frozen=True)
class StudyManifest:
    entries: tuple[ManifestEntry, ...]
    feature_columns: tuple[str, ...] | None


def load_manifest(manifest_path) -> StudyManifest:
    """Parse and validate a manifest document."""
    path = Path(manifest_path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ManifestError(f"manifest {path} must be an object with an 'entries' list")
    if not doc["entries"]:
        raise ManifestError(f"manifest {path} lists no studies")
    base = path.parent
    entries = []
    for i, raw in enumerate(doc["entries"]):
        if not isinstance(raw, dict):
            raise ManifestError(f"manifest entry {i} must be an object")
        missing = [k for k in ("study_id", "data_path", "response_column")
                   if not isinstance(raw.get(k), str) or not raw.get(k)]
        if missing:
            raise ManifestError(
                f"manifest entry {i} is missing string field(s): {missing}")
        data_path = Path(raw["data_path"])
        if not data_path.is_absolute():
            data_path = base / data_path
        entries.append(ManifestEntry(study_id=raw["study_id"],
                                     data_path=data_path,
                                     response_column=raw["response_column"]))
    ids = [e.study_id for e in entries]
    if len(set(ids)) != len(ids):
        raise ManifestError(f"duplicate study ids in manifest: {ids}")
    feature_columns = doc.get("feature_columns")
    if feature_columns is not None:
        if (not isinstance(feature_columns, list)
                or not all(isinstance(c, str) for c in feature_columns)
                or not feature_columns):
            raise ManifestError("feature_columns must be a nonempty list of strings")
        if len(set(feature_columns)) != len(feature_columns):
            raise ManifestError("feature_columns contains duplicates")
        feature_columns = tuple(feature_columns)
    return StudyManifest(entries=tuple(entries), feature_columns=feature_columns)


def _read_table(path: Path, study_id: str) -> tuple[list[str], np.ndarray]:
    if not path.is_file():
        raise ManifestError(f"study {study_id!r}: data file not found: {path}")
    header: list[str] = []
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _Rows(fh)
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


class _Rows:
    """The rows ``csv.reader`` gives for a file opened with ``newline=""``.

    Under the default dialect (delimiter ``,``, quote ``"``, no escape
    character, not strict) a line with no quote is exactly its
    comma-separated pieces, which ``str.split`` gives at about half the
    cost. A line that holds a quote, a NUL (which Python 3.10's ``csv``
    rejects) or a field over ``csv.field_size_limit()`` starts a record
    that ``csv.reader`` reads, over as many lines as it needs.
    ``line_num`` counts the lines consumed, as ``csv.reader``'s does."""

    def __init__(self, fh):
        self._fh = fh
        self._limit = csv.field_size_limit()
        self.line_num = 0

    def __iter__(self):
        return self

    def __next__(self) -> list[str]:
        line = next(self._fh)
        if '"' not in line and "\0" not in line:
            text = line.rstrip("\r\n")
            cells = text.split(",") if text else []
            if (len(line) <= self._limit
                    or max(map(len, cells), default=0) <= self._limit):
                self.line_num += 1
                return cells
        record = csv.reader(chain([line], self._fh))
        try:
            return next(record)
        finally:
            self.line_num += record.line_num


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


def load_multistudy(manifest_path) -> MultiStudy:
    """Load every study in a manifest into one aligned MultiStudy."""
    manifest = load_manifest(manifest_path)
    tables = {}
    for entry in manifest.entries:
        header, values = _read_table(entry.data_path, entry.study_id)
        if entry.response_column not in header:
            raise ManifestError(
                f"study {entry.study_id!r}: response column "
                f"{entry.response_column!r} not in {entry.data_path}")
        tables[entry.study_id] = (header, values)

    if manifest.feature_columns is not None:
        features = list(manifest.feature_columns)
        feature_set = set(features)
        for entry in manifest.entries:
            if entry.response_column in feature_set:
                raise ManifestError(
                    f"study {entry.study_id!r}: response column "
                    f"{entry.response_column!r} is listed in feature_columns")
            present = set(tables[entry.study_id][0])
            absent = [c for c in features if c not in present]
            if absent:
                raise ManifestError(
                    f"study {entry.study_id!r}: feature column(s) {absent} "
                    f"not in {entry.data_path}")
    else:
        first = manifest.entries[0]
        candidate = [c for c in tables[first.study_id][0]
                     if c != first.response_column]
        shared = set(candidate)
        union = set(candidate)
        for entry in manifest.entries[1:]:
            cols = {c for c in tables[entry.study_id][0]
                    if c != entry.response_column}
            shared &= cols
            union |= cols
        features = [c for c in candidate if c in shared]
        if not features:
            raise ManifestError("studies share no feature columns")
        dropped = sorted(union - shared)
        if dropped:
            warnings.warn(
                f"dropping {len(dropped)} column(s) not shared by every "
                f"study: {dropped}", stacklevel=2)

    studies = []
    for entry in manifest.entries:
        header, values = tables[entry.study_id]
        col_of = {c: i for i, c in enumerate(header)}
        x = values[:, [col_of[c] for c in features]]
        y = values[:, col_of[entry.response_column]]
        studies.append(Study(id=entry.study_id, x=x, y=y))
    return MultiStudy(studies=tuple(studies), feature_names=tuple(features))


def write_multistudy(data: MultiStudy, directory) -> Path:
    """Export a MultiStudy as per-study CSVs plus ``manifest.json``; floats
    use shortest round-trip formatting so a reload reproduces values
    exactly. Returns the manifest path. Raises ``InputError``, before any
    file is written, for a study id that is not a plain file name and for
    a feature name with whitespace at either end, which reading strips."""
    directory = Path(directory)
    for study in data.studies:
        stem = str(study.id)
        if (stem in ("", ".", "..") or "\0" in stem
                or any(sep and sep in stem for sep in ("/", os.sep, os.altsep))):
            raise InputError(
                f"study id {study.id!r} cannot name a file in {directory}")
    for name in data.feature_names:
        if name != name.strip():
            raise InputError(
                f"feature name {name!r} has whitespace at either end, "
                "which reading strips")
    directory.mkdir(parents=True, exist_ok=True)
    response = "response"
    while response in data.feature_names:
        response = "_" + response
    entries = []
    for study in data.studies:
        file_name = f"{study.id}.csv"
        header = [response, *data.feature_names]
        rows = [[repr(float(study.y[i]))]
                + [repr(float(v)) for v in study.x[i]]
                for i in range(study.n)]
        write_csv_atomic(directory / file_name, header, rows)
        entries.append({"study_id": study.id, "data_path": file_name,
                        "response_column": response})
    manifest = {"entries": entries, "feature_columns": list(data.feature_names)}
    path = directory / "manifest.json"
    write_json_atomic(path, manifest)
    return path


def write_json_atomic(path, payload) -> None:
    """Serialize to JSON deterministically and rename into place."""
    path = Path(path)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _replace_with(path, text)


def write_csv_atomic(path, header, rows) -> None:
    """Write a header and rows as CSV, one line each, and rename into
    place. Cells are quoted as ``csv.writer`` quotes them, so a name
    holding a comma, a quote or a line break reads back; a row that needs
    no quoting is joined directly, which is about ten times faster for
    long numeric rows."""
    path = Path(path)
    lines = [_quoted_line([str(c) for c in header])]
    for row in rows:
        cells = [str(c) for c in row]
        line = ",".join(cells)
        if (line.count(",") > len(cells) - 1 or '"' in line
                or "\r" in line or "\n" in line):
            line = _quoted_line(cells)
        lines.append(line)
    _replace_with(path, "\n".join(lines) + "\n")


def _quoted_line(cells: list[str]) -> str:
    # csv.writer quotes a cell holding a character of its line terminator,
    # so its default "\r\n" makes it quote both "\r" and "\n".
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()[:-2]


def _replace_with(path: Path, text: str) -> None:
    # Mode "x" creates the file with the permissions the umask leaves, as
    # open(..., "w") would, and never reuses an existing file.
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
