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
On Linux the K files are parsed by up to min(K, usable CPUs) reader
processes of ``_forked.forked_map``, and in this process elsewhere or with
one usable CPU, with the same values and errors either way; an export
(``write_multistudy``) writes them through the same map, with the same
bytes either way. A reader or writer calls no BLAS; Python ≥ 3.12 warns
when it forks a multi-threaded process.
When ``feature_columns`` is absent the feature set is the intersection of
the studies' non-response columns, in first-study order, and a warning
lists anything dropped.

A parsed table is kept in ``.multiscreen-cache/`` beside its data file,
as ``<file name>.<SHA-256 of its bytes>.<tag>.npz``. The tag
(``_cache_tag``) names what else the parse depends on: the table format,
the package, Python and numpy versions and ``csv.field_size_limit()``.
``_stored`` decides each file: it is hashed only when the cache directory
exists; a hit is read in this process with no parse and no fork; every
miss, a damaged or stale entry included, is parsed by the readers and
stored by this process. The CSV stays the only source of truth: errors
are never stored, an entry that cannot be written is skipped, each data
file keeps one entry and the directory may be deleted.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
import sys
import warnings
import zipfile
from collections import Counter
from contextlib import closing
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from ._forked import ChildEnded, forked_map
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
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from None
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


def _read_table(path: Path, study_id: str,
                sha=None) -> tuple[list[str], np.ndarray]:
    """The stripped header and the (rows, columns) values of a study file.

    The file is opened and decoded once; a byte that is not UTF-8 is
    reported before any cell is checked. When no data line needs
    ``csv.reader`` (see ``_split_on_commas``), one ``np.loadtxt`` call
    converts them, each cell by ``PyOS_string_to_double`` as ``float()``
    does, and keeps the result if it has a row per line, a column per name
    and only finite values. Otherwise the same lines are read cell by cell
    through ``csv.reader``, which raises the error for the first fault.
    Every byte read is fed to the hash ``sha``, when one is given."""
    if not path.is_file():
        raise ManifestError(f"study {study_id!r}: data file not found: {path}")
    try:
        with open(path, "rb") as fh, io.TextIOWrapper(
                fh if sha is None else io.BufferedReader(_Hashed(fh, sha)),
                encoding="utf-8-sig", newline="") as text:
            lines = text.readlines()
    except UnicodeDecodeError as exc:
        raise ManifestError(
            f"study {study_id!r}: {path} is not valid UTF-8 (byte "
            f"0x{exc.object[exc.start]:02x}: {exc.reason})") from None
    except OSError as exc:
        raise ManifestError(
            f"study {study_id!r}: cannot read {path}: {exc}") from None
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


class _Hashed(io.RawIOBase):
    """A readable stream of ``raw``'s bytes that feeds each one to ``sha``
    as it passes, so a file is hashed without a second copy of it."""

    def __init__(self, raw, sha):
        self._raw, self._sha = raw, sha

    def readable(self):
        return True

    def readinto(self, buf):
        n = self._raw.readinto(buf)
        self._sha.update(memoryview(buf)[:n])
        return n


def _parse(entry):
    """``_read_table``'s (header, values) for ``entry`` and the SHA-256 hex
    digest of the bytes it parsed them from."""
    sha = hashlib.sha256()
    header, values = _read_table(entry.data_path, entry.study_id, sha)
    return header, values, sha.hexdigest()


# The format of a stored table. Bump it whenever _read_table's result for
# given bytes changes, so that no entry written before is read again; a
# test pins the parser's source to it.
_CACHE_FORMAT = "v1"


def _cache_tag() -> str:
    """16 hex digits that name everything a parse depends on besides the
    bytes: the format, the package version, Python's minor version (its
    ``csv`` and ``float()``), numpy's version (``np.loadtxt``) and the
    process's ``csv.field_size_limit()``."""
    key = json.dumps([_CACHE_FORMAT, __version__, sys.version_info[:2],
                      np.__version__, csv.field_size_limit()])
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _entry_path(data_path: Path, digest: str, tag: str) -> Path:
    return (data_path.parent / ".multiscreen-cache"
            / f"{data_path.name}.{digest}.{tag}.npz")


def _stored(entry, tag: str):
    """The (header, values) stored for the data file's current bytes, or
    None for a miss: no cache directory, no entry for these bytes, an
    entry that cannot be read or is malformed, or a file that cannot be
    read (its reader reports that).

    The file is hashed here, and only when the cache directory exists,
    because a warm hit must not fork; so a stale entry's file is hashed
    again by the reader that parses it."""
    data_path = entry.data_path
    try:
        if not (data_path.parent / ".multiscreen-cache").is_dir():
            return None
        sha, buf = hashlib.sha256(), bytearray(1 << 20)
        with open(data_path, "rb") as fh:
            while n := fh.readinto(buf):
                sha.update(memoryview(buf)[:n])
        # np.load leaves a file it opened itself unclosed when the zip
        # is truncated.
        with open(_entry_path(data_path, sha.hexdigest(), tag), "rb") as fh, \
                np.load(fh, allow_pickle=False) as stored:
            header = json.loads(stored["header"].tobytes())
            values = stored["values"]
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        return None  # missing, empty, truncated or not written by _store
    if (isinstance(header, list) and all(isinstance(h, str) for h in header)
            and values.dtype == np.float64 and values.ndim == 2
            and values.shape[1] == len(header)):
        return header, values
    return None


def _store(entry, header, values, digest: str, tag: str) -> None:
    """Store a parsed table under the digest of its bytes and delete the
    file's other entries, whatever their tag (an older naming's included);
    a directory that cannot be written is skipped."""
    path = _entry_path(entry.data_path, digest, tag)
    # The header goes in as JSON text: numpy's fixed-width strings would
    # drop a trailing NUL.
    text = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    ours = re.compile(re.escape(entry.data_path.name)
                      + r"\.[0-9a-f]{64}\..+\.npz")
    try:
        _replace_with(path, lambda fh: np.savez(fh, header=text,
                                                values=values), binary=True)
        for name in os.listdir(path.parent):
            if name != path.name and ours.fullmatch(name):
                os.unlink(path.parent / name)
    except OSError:
        pass


def _read_tables(entries):
    """Yield ``_read_table``'s (header, values) for each entry in order.
    ``_stored`` decides each entry first: a hit is read in this process,
    with no parse and no fork; every miss (unseen bytes, a stale or a
    damaged entry) is parsed by ``forked_map`` on the usable CPUs and
    stored by this process. An entry's error is raised at its turn, after
    the caller's checks of the entries before it."""
    tag = _cache_tag()
    tables = [_stored(entry, tag) for entry in entries]
    misses = [entry for entry, table in zip(entries, tables) if table is None]
    try:
        with closing(forked_map(_parse, misses)) as parsed:
            for entry, table in zip(entries, tables):
                if table is None:
                    header, values, digest = next(parsed)
                    _store(entry, header, values, digest, tag)
                    table = header, values
                yield table
    except ChildEnded as exc:
        raise RuntimeError(
            f"study {exc.item.study_id!r}: the process reading "
            f"{exc.item.data_path} ended before sending its table") from None


def load_multistudy(manifest_path) -> MultiStudy:
    """Load every study in a manifest into one aligned MultiStudy.

    On Linux the study files are parsed by up to min(K, usable CPUs)
    processes of ``forked_map`` (``_read_tables``), each table sent back
    pickled, and in this process elsewhere or with one usable CPU. Values
    and errors are identical either way: each file is parsed by the same
    ``_read_table``, and the error raised is that of the first failing
    entry in manifest order. The children call no BLAS; Python ≥ 3.12
    warns when it forks a process that has threads, as BLAS may have.

    The table cache (``_read_tables``): a file is hashed only when
    ``.multiscreen-cache/`` exists beside it; a hit, equal bit for bit to
    what ``_read_table`` returns for the file's bytes, is read in this
    process with no parse and no fork; every miss, a damaged or stale
    entry included, is parsed by the readers and stored by this process,
    replacing the file's older entry. No error is ever stored.

    Each study's data is held once: its feature columns are copied out of
    the parsed table in manifest feature order, the response column is
    copied too, and the table is dropped as soon as its study is built."""
    manifest = load_manifest(manifest_path)
    tables = {}
    with closing(_read_tables(manifest.entries)) as read:
        for entry, (header, values) in zip(manifest.entries, read):
            if entry.response_column not in header:
                raise ManifestError(
                    f"study {entry.study_id!r}: response column "
                    f"{entry.response_column!r} not in {entry.data_path}")
            # A table unpickled from a reader has an equal but distinct
            # float64 dtype, which Study would wrap in a view, not use.
            tables[entry.study_id] = (header, np.asarray(values, dtype=float))

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
    file and for a feature name with whitespace at either end.

    On Linux the study files are formatted and written by up to
    min(K, usable CPUs) writer processes of ``forked_map``, and in this
    process elsewhere or with one usable CPU, with the same bytes either
    way; a writer calls no BLAS. ``manifest.json`` is written last, once
    every study file is in place. If a study fails, every other study is
    still written, so that no writer is stopped mid-file; the error raised
    is then that of the first failing study in study order, no temporary
    file is left, and the manifest is not written."""
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
    header = [response, *data.feature_names]

    def write_one(study):
        # A Python float's str is its shortest round-trip repr.
        rows = ([y, *study.x[i].tolist()]
                for i, y in enumerate(study.y.tolist()))
        try:
            write_csv_atomic(directory / f"{study.id}.csv", header, rows)
        except Exception as exc:
            # Raised, it would make forked_map kill the other writers.
            return exc
        return None

    try:
        errors = [exc for exc in forked_map(write_one, data.studies)
                  if exc is not None]
    except ChildEnded as exc:
        raise RuntimeError(
            f"study {exc.item.id!r}: the process writing "
            f"{directory / exc.item.id}.csv ended before it finished") from None
    if errors:
        raise errors[0]
    entries = [{"study_id": study.id, "data_path": f"{study.id}.csv",
                "response_column": response} for study in data.studies]
    manifest = {"entries": entries, "feature_columns": list(data.feature_names)}
    path = directory / "manifest.json"
    write_json_atomic(path, manifest)
    return path


def write_json_atomic(path, payload) -> None:
    """Serialize to JSON deterministically and rename into place.

    The bytes are ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``,
    produced by ``_write_json``, not by ``json.dump``: with an indent,
    ``json`` always runs its pure-Python generator encoder. ``_write_json``
    runs no generator. It dispatches on a value's exact type and converts
    with the C ``encode_basestring_ascii``, ``float.__repr__`` and
    ``int.__repr__``; it joins a list of scalars in one call; any other
    value takes ``json``'s own ``isinstance`` order (numpy floats,
    ``IntEnum``) and raises ``json``'s exception. Writing the result of
    one command on the benchmark fixture (p = 1 000, K = 5) to a file,
    best of 15 alternating runs, in ms (Python 3.11, 2-vCPU host):

        ========  ======  =========  ===========
        command   size    json.dump  _write_json
        ========  ======  =========  ===========
        tsa       483 kB       20.7         13.2
        onestep   457 kB       19.3         12.0
        minsis    159 kB        7.3          4.6
        multipc   2.4 kB       0.27         0.17
        ========  ======  =========  ===========

    At p = 2·10⁴ the 9.8 MB ``result.json`` of ``screen --method tsa``
    took 251–329 ms against 410–447 ms (three warm runs each), with the
    same bytes.

    The text reaches the temporary file ``_JSON_PIECES`` pieces at a time,
    so the whole document is never held. A payload that fails to encode
    leaves ``path`` as it was."""
    _replace_with(Path(path), lambda fh: _write_json(fh, payload))


# json's spelling of the floats that float.__repr__ writes as nan, inf and
# -inf, and the converter that joins a list of one exact scalar type.
_float_repr, _int_repr = float.__repr__, int.__repr__
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JOINED = {float: _float_repr, int: _int_repr, str: encode_basestring_ascii}
_SCALARS = {str, float, int, bool, type(None)}


def _scalar_text(value):
    """json's text for a string, number, bool or None, in json's own
    ``isinstance`` order, or None for any other value."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _int_repr(value)
    if isinstance(value, float):
        text = _float_repr(value)
        return _NONFINITE.get(text, text)
    return None


def _write_json(fh, payload) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"`` to
    the text file ``fh``, at most about ``_JSON_PIECES`` pieces at a time.
    The first value ``json`` cannot write raises what ``json`` raises: a
    ``TypeError`` for an unsupported type, a bad key or keys that do not
    sort, a ``ValueError`` for a container that holds itself."""
    pieces, open_ids = [], set()
    append = pieces.append

    def write(value, indent):
        # Append the text of ``value``; a container's closing bracket
        # follows ``indent``, a newline and its spaces.
        if isinstance(value, (list, tuple)):
            is_dict, brackets = False, "[]"
        elif isinstance(value, dict):
            is_dict, brackets = True, "{}"
        else:
            text = _scalar_text(value)
            if text is None:
                raise TypeError(f"Object of type {value.__class__.__name__} "
                                f"is not JSON serializable")
            append(text)
            return
        if not value:
            append(brackets)
            return
        if id(value) in open_ids:
            raise ValueError("Circular reference detected")
        inner = indent + "  "
        sep = "," + inner
        if is_dict:
            entries = sorted(value.items())
        else:
            kinds = set(map(type, value))
            if kinds <= _SCALARS:
                # No container inside, so no cycle through it: one join.
                convert = _JOINED.get(kinds.pop()) if len(kinds) == 1 else None
                text = sep.join(map(convert or _scalar_text, value))
                if convert is _float_repr and "n" in text:  # nan or inf
                    text = sep.join(map(_scalar_text, value))
                append("[" + inner + text + indent + "]")
                return
            entries = value
        open_ids.add(id(value))
        head = brackets[0] + inner
        for item in entries:
            if is_dict:
                key, item = item
                if not isinstance(key, str):
                    # json converts a key after sorting.
                    text = _scalar_text(key)
                    if text is None:
                        raise TypeError(
                            f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
                    key = text
                head += encode_basestring_ascii(key) + ": "
            # Exact types first; json's isinstance order for the rest.
            kind = type(item)
            if kind is float:
                text = _float_repr(item)
                append(head + _NONFINITE.get(text, text))
            elif kind is str:
                append(head + encode_basestring_ascii(item))
            elif kind is int:
                append(head + _int_repr(item))
            elif (kind is dict or kind is list
                  or (text := _scalar_text(item)) is None):
                append(head)
                write(item, inner)
            else:
                append(head + text)
            head = sep
            if len(pieces) > _JSON_PIECES:
                fh.write("".join(pieces))
                pieces.clear()
        append(indent + brackets[1])
        open_ids.discard(id(value))

    write(payload, "\n")
    fh.write("".join(pieces) + "\n")


def write_csv_atomic(path, header, rows) -> None:
    """Write a header and rows as CSV, one line each, and rename into
    place. Cells are quoted as ``csv.writer`` quotes them, so a name
    holding a comma, a quote or a line break reads back; a row that needs
    no quoting is joined directly, which is about ten times faster for
    long numeric rows. Lines are written in chunks of about
    ``_CSV_CHUNK`` characters, so the text of a large file is never held
    whole."""

    def write(fh):
        lines, held = [_quoted_line([str(c) for c in header])], 0
        for row in rows:
            cells = [str(c) for c in row]
            line = ",".join(cells)
            if (line.count(",") > len(cells) - 1 or '"' in line
                    or "\r" in line or "\n" in line):
                line = _quoted_line(cells)
            lines.append(line)
            held += len(line)
            if held > _CSV_CHUNK:
                fh.write("\n".join(lines) + "\n")
                lines, held = [], 0
        if lines:
            fh.write("\n".join(lines) + "\n")

    _replace_with(Path(path), write)


# Characters of CSV lines held before they are written: one write for the
# tables the commands emit, a bounded buffer for a study file.
_CSV_CHUNK = 1 << 18
# Pieces of JSON text held before they are written. A piece is one scalar
# item with its indent, key and separator, or a list of scalars. Writing a
# screen's result.json then peaks at about 90 kB of Python memory
# (tracemalloc), as json.dump's stream does at 60-70 kB; with 1 024 pieces
# it was 220 kB, and no faster.
_JSON_PIECES = 256


def _quoted_line(cells: list[str]) -> str:
    # csv.writer quotes a cell holding a character of its line terminator,
    # so its default "\r\n" makes it quote both "\r" and "\n".
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()[:-2]


def _replace_with(path: Path, write, binary: bool = False) -> None:
    # ``write(fh)`` fills a new temporary file, text or binary, which then
    # replaces ``path``; if it raises, the temporary file is removed. Mode
    # "x" creates the file with the permissions the umask leaves, as
    # open(..., "w") would, and never reuses an existing file.
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
