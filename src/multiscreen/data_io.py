"""Manifest-driven ingestion of user-supplied study tables and atomic
result emission.

A manifest is a JSON document::

    {"entries": [{"study_id": "...", "data_path": "...",
                  "response_column": "..."}, ...],
     "feature_columns": ["g1", "g2", ...]}        # optional

Each data file is a CSV with a header row and one numeric row per
observation, read as ``csv.reader`` and ``float()`` read it. A file is
opened and decoded once, so one that is not UTF-8 is rejected before any
cell is checked; then numpy's C reader converts quote-free data lines
with ``float()``'s own conversion, and any other file is read from the
same lines cell by cell. Data paths are resolved relative to the
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
from pathlib import Path

import numpy as np

from .errors import InputError, ManifestError
from .screening import MultiStudy, Study, _all_finite

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
    """The stripped header and the (rows, columns) values of a study file.

    The file is opened and decoded once; a byte that is not UTF-8 is
    reported before any cell is checked. When no data line needs
    ``csv.reader`` (see ``_split_on_commas``), one ``np.loadtxt`` call
    converts them, each cell by ``PyOS_string_to_double`` as ``float()``
    does, and keeps the result if it has a row per line, a column per name
    and only finite values. Otherwise the same lines are read cell by cell
    through ``csv.reader``, which raises the error for the first fault."""
    if not path.is_file():
        raise ManifestError(f"study {study_id!r}: data file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ManifestError(
            f"study {study_id!r}: {path} is not valid UTF-8 (byte "
            f"0x{exc.object[exc.start]:02x}: {exc.reason})") from None
    limit = csv.field_size_limit()
    if lines and _split_on_commas(lines[0], limit):
        header, offset = lines[0].rstrip("\r\n").split(","), 1
    else:
        reader = csv.reader(lines)
        try:
            header, offset = next(reader, None), reader.line_num
        except csv.Error as exc:
            raise ManifestError(f"study {study_id!r}: {path} line "
                                f"{reader.line_num}: {exc}") from None
        if header is None:
            raise ManifestError(f"study {study_id!r}: {path} is empty")
    header = [h.strip() for h in header]
    if any(not h for h in header):
        raise ManifestError(f"study {study_id!r}: {path} has an empty column name")
    if len(set(header)) != len(header):
        dupes = sorted(h for h, n in Counter(header).items() if n > 1)
        raise ManifestError(
            f"study {study_id!r}: duplicate column names in {path}: {dupes}")
    body = lines[offset:]
    if body and all(_split_on_commas(line, limit) for line in body):
        try:
            values = np.loadtxt(body, delimiter=",", comments=None,
                                quotechar=None, dtype=float, ndmin=2)
        except ValueError:
            pass  # a cell numpy rejects: found again below
        else:
            if (values.shape == (len(body), len(header))
                    and _all_finite(values)):
                return header, values
    rows: list[list[float]] = []
    reader = csv.reader(body)
    try:
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
                if not math.isfinite(value):
                    raise ManifestError(
                        f"study {study_id!r}: non-finite value at row "
                        f"{row_num}, column {col_name} ({path})")
                parsed.append(value)
            rows.append(parsed)
    except csv.Error as exc:
        raise ManifestError(f"study {study_id!r}: {path} line "
                            f"{offset + reader.line_num}: {exc}") from None
    if not rows:
        raise ManifestError(f"study {study_id!r}: {path} has no data rows")
    return header, np.asarray(rows, dtype=float)


def _split_on_commas(line: str, limit: int) -> bool:
    """Whether ``csv.reader`` reads ``line`` as its comma-separated pieces:
    it is not blank and has no quote, no NUL and no field over ``limit``."""
    # csv.reader gives [] for a blank line; Python 3.10's csv rejects a NUL.
    return (line[0] not in "\r\n" and '"' not in line and "\0" not in line
            and (len(line) <= limit
                 or max(map(len, line.rstrip("\r\n").split(","))) <= limit))


def load_multistudy(manifest_path) -> MultiStudy:
    """Load every study in a manifest into one aligned MultiStudy.

    Each study's data is held once: its feature columns are copied out of
    the parsed table in manifest feature order, the response column is
    copied too, and the table is dropped as soon as its study is built.
    With ``result.json`` streamed (``write_json_atomic``), this took the
    peak of ``screen --method tsa`` at p = 2·10⁴ (5 studies of 100 rows,
    80 MB of data) from 280 to 159 MB."""
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
        header, values = tables.pop(entry.study_id)
        col_of = {c: i for i, c in enumerate(header)}
        x = values[:, [col_of[c] for c in features]]
        y = values[:, col_of[entry.response_column]].copy()
        studies.append(Study(id=entry.study_id, x=x, y=y))
    return MultiStudy(studies=tuple(studies), feature_names=tuple(features))


def write_multistudy(data: MultiStudy, directory) -> Path:
    """Export a MultiStudy as per-study CSVs plus ``manifest.json``; floats
    use shortest round-trip formatting so a reload reproduces values
    exactly. Returns the manifest path. Raises ``InputError``, before any
    file is written, for a study id that is not a string naming a plain
    file and for a feature name with whitespace at either end."""
    directory = Path(directory)
    for study in data.studies:
        if (not isinstance(study.id, str) or study.id in ("", ".", "..")
                or {"/", "\0", os.sep, os.altsep} & set(study.id)):
            raise InputError(f"study id {study.id!r} must be a string that "
                             f"names a file in {directory}")
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
        # A Python float's str is its shortest round-trip repr.
        rows = ([y, *study.x[i].tolist()]
                for i, y in enumerate(study.y.tolist()))
        write_csv_atomic(directory / file_name, header, rows)
        entries.append({"study_id": study.id, "data_path": file_name,
                        "response_column": response})
    manifest = {"entries": entries, "feature_columns": list(data.feature_names)}
    path = directory / "manifest.json"
    write_json_atomic(path, manifest)
    return path


def write_json_atomic(path, payload) -> None:
    """Serialize to JSON deterministically and rename into place.

    The bytes are ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``,
    but the encoder's chunks stream into the temporary file, so neither
    the chunk list nor the joined document is held: at p = 2·10⁴ that
    would be about 52 MB for a 9.8 MB ``result.json``. A payload that
    fails to encode leaves ``path`` as it was."""

    def write(fh):
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _replace_with(Path(path), write)


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
    _replace_with(path, lambda fh: fh.write("\n".join(lines) + "\n"))


def _quoted_line(cells: list[str]) -> str:
    # csv.writer quotes a cell holding a character of its line terminator,
    # so its default "\r\n" makes it quote both "\r" and "\n".
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()[:-2]


def _replace_with(path: Path, write) -> None:
    # ``write(fh)`` fills a new temporary file, which then replaces
    # ``path``; if it raises, the temporary file is removed. Mode "x"
    # creates the file with the permissions the umask leaves, as
    # open(..., "w") would, and never reuses an existing file.
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
