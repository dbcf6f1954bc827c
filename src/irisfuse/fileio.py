"""File formats: binary templates, CSV tables and their sidecars, manifests, checkpoints.

All writers are deterministic (fixed column orders, ``repr`` floats
that round-trip exactly, ``\\n`` line endings, rows in input order) and
every reader parses strictly: wrong magic, truncated payloads, ragged
rows or non-finite numbers raise :class:`ParseError` carrying the file
and position.

The feature, match, score and ROC CSVs share one columnar codec.  A
table is a dict of equal-length numpy arrays, one per column (the
feature table's ``f0..f{D-1}`` are one ``(n, D)`` matrix, see
:func:`read_feature_csv`), and a schema lists each column's name and
kind in file order:

    str      text, as written                   array of str
    label    ``genuine`` or ``impostor``        bool array, True for genuine
    flag     ``1`` or ``0``                     bool array
    float    finite number, ``repr`` text       float64 array
    float?   empty, or a finite number          float64, NaN if empty
    int?     empty, or an integer, |v| < 2**53  float64, NaN if empty

Readers and writers stream blocks of at most :data:`BLOCK_ROWS` rows
and :data:`BLOCK_FIELDS` fields.  A reader splits each line at ``,``
with ``str.split`` up to the first block holding a ``"``, ``\r``, NUL
or a line longer than ``csv.field_size_limit()``; from there a
``csv.reader`` parses every line, so the rows and the errors are the
``csv`` module's (see :func:`_row_blocks`).  A reader can be asked for
some of a table's columns (``columns=``) and can hand them over one
block at a time (:func:`read_match_blocks`); it still checks the whole
header and every row's field count, but parses only the columns asked
for.  A writer can append a table block by block
(:func:`score_csv_writer`); it writes to a temporary file beside its
path that replaces the path only once the whole table is written, and
it rejects a number that would not read back, and a label or flag
column that does not hold booleans.  :func:`write_json`, for
the checkpoint, the eval summary and the sidecars, writes the same way.

A match CSV, and each score CSV made from it, has a sidecar
``<table>.meta.json`` (:func:`sidecar_path`): a JSON object holding
exactly the matcher settings it was scored with, :data:`SIDECAR_KEYS`
(``alpha``, ``max_shift``, ``step``, ``protocol``, ``unmasked_ws``), and
no paths or timings, so its bytes are the same for the same settings.
:func:`read_sidecar` checks every key and value.

A column can also be handed over, and written, as its field texts
(:class:`FieldTexts`), so that a stage which only copies a column never
formats it again.  :func:`read_match_blocks` gives the texts of every
column it parses, as read, and :func:`field_texts` gives the texts a
writer would write for checked values.  Only these two make field
texts (a stage may gather their rows, or blank an optional field):
a writer takes a column's texts when their kind is the column's kind
and writes them without checking them again, so a number keeps the
text it was read with (``1e-3`` stays ``1e-3``).

A text field, or a field text of any kind (``float()`` accepts a line
break around the digits), holding ``,``, ``"``, ``\\r`` or ``\\n`` is
written inside ``"`` with each inner ``"`` doubled, a row whose only
field is empty as ``""``, and any other field bare.  A text field
holding a NUL is rejected by both readers and writers, because numpy
text arrays drop a trailing NUL.  Floats are parsed by one numpy cast
per column, which applies Python's ``float()`` to each text, so the
codec accepts the same texts as ``float()`` (and ``int()`` for int?).
A parse error names the first bad field of the columns read, in file
order; a ``csv`` error (such as a field over its size limit) names its
line.  The match CSV (:data:`MATCH_SCHEMA`) leaves the iris fields
empty for unusable pairs; the score CSV (:data:`SCORE_SCHEMA`) leaves
the cue and fused fields empty there.

Template container layout (little-endian):

    offset 0  magic     4 bytes  b"IRT1"
    offset 4  version   1 byte
    offset 5  height    uint16
    offset 7  width     uint16
    offset 9  bits      ceil(H*W/8) bytes, MSB-first row-major
    ...       mask      same size
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import itertools
import json
import math
import os
import re
import struct
from pathlib import Path
from typing import Mapping

import numpy as np

from .bitmatch import ShiftPolicy, _check_alpha
from .evaluation import PROTOCOLS, Manifest, ManifestEntry, RocCurve
from .fusion import NormalizationParams
from .mlp import LAYER_SIZES, MlpParams, TrainConfig
from .templates import IrisTemplate, plane_bytes

TEMPLATE_MAGIC = b"IRT1"
TEMPLATE_VERSION = 1
_HEADER = struct.Struct("<4sBHH")

CHECKPOINT_FORMAT = "irisfuse-fusion-checkpoint"
CHECKPOINT_VERSION = 1


class ParseError(ValueError):
    """Malformed input; the message names the source and offending position."""


@dataclasses.dataclass(frozen=True)
class FieldTexts:
    """A table column given as the texts of its fields, unquoted: a 1-D
    object array of ``str`` of a column ``kind`` (see the module docstring
    for who makes them)."""

    kind: str
    texts: np.ndarray


# ---------------------------------------------------------------------------
# Binary template container


def template_to_bytes(template: IrisTemplate) -> bytes:
    header = _HEADER.pack(
        TEMPLATE_MAGIC, TEMPLATE_VERSION, template.height, template.width
    )
    return header + template.packed_bits.tobytes() + template.packed_mask.tobytes()


def template_from_bytes(data: bytes, source: str = "<bytes>") -> IrisTemplate:
    if len(data) < _HEADER.size:
        raise ParseError(
            f"{source}: truncated header, expected {_HEADER.size} bytes, got {len(data)}"
        )
    magic, version, height, width = _HEADER.unpack_from(data)
    if magic != TEMPLATE_MAGIC:
        raise ParseError(f"{source}: bad magic {magic!r} at offset 0")
    if version != TEMPLATE_VERSION:
        raise ParseError(f"{source}: unsupported version {version}")
    if height < 1 or width < 1:
        raise ParseError(f"{source}: invalid dimensions {height}x{width}")
    plane = plane_bytes(height, width)
    expected = _HEADER.size + 2 * plane
    if len(data) != expected:
        raise ParseError(
            f"{source}: expected {expected} bytes for {height}x{width}, got {len(data)}"
        )
    bits = np.frombuffer(data, dtype=np.uint8, count=plane, offset=_HEADER.size)
    mask = np.frombuffer(data, dtype=np.uint8, count=plane, offset=_HEADER.size + plane)
    try:
        return IrisTemplate(
            height=height, width=width, packed_bits=bits, packed_mask=mask
        )
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from exc


def write_template(path, template: IrisTemplate) -> None:
    Path(path).write_bytes(template_to_bytes(template))


def read_template(path) -> IrisTemplate:
    path = Path(path)
    return template_from_bytes(path.read_bytes(), source=str(path))


def _open_reader(path):
    return open(path, "r", newline="", encoding="utf-8")


def _open_writer(path, mode="w"):
    return open(path, mode, newline="", encoding="utf-8")


# ---------------------------------------------------------------------------
# Manifest: one JSON object per line

_MANIFEST_KEYS = {field.name for field in dataclasses.fields(ManifestEntry)}


def write_manifest(path, manifest: Manifest) -> None:
    with _open_writer(path) as fh:
        for e in manifest.entries:
            fh.write(json.dumps({k: getattr(e, k) for k in _MANIFEST_KEYS}, sort_keys=True) + "\n")


def read_manifest(path) -> Manifest:
    source = str(path)
    entries = []
    with _open_reader(path) as fh:
        for line, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{source}:{line}: invalid JSON: {exc.msg}") from exc
            if not isinstance(obj, dict) or set(obj) != _MANIFEST_KEYS:
                raise ParseError(
                    f"{source}:{line}: expected keys {sorted(_MANIFEST_KEYS)}"
                )
            if type(obj["sample_index"]) is not int:  # a JSON true is a Python int
                raise ParseError(f"{source}:{line}: sample_index must be an integer")
            for key in ("subject_id", "template_ref", "periocular_ref"):
                if type(obj[key]) is not str:
                    raise ParseError(f"{source}:{line}: {key} must be a string, got {obj[key]!r}")
            try:
                entries.append(ManifestEntry(**obj))
            except ValueError as exc:
                raise ParseError(f"{source}:{line}: {exc}") from exc
    try:
        return Manifest(tuple(entries))
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV tables: one columnar codec driven by a column schema
# (column kinds and table layout in the module docstring)

STR, LABEL, FLAG, FLOAT, OPT_FLOAT, OPT_INT = (
    "str", "label", "flag", "float", "float?", "int?"
)
LABELS = ("genuine", "impostor")
_DTYPES = {
    STR: str, LABEL: bool, FLAG: bool,
    FLOAT: np.float64, OPT_FLOAT: np.float64, OPT_INT: np.float64,
}
_INT_LIMIT = 2**53  # optional ints live in float64 columns, exact below this
BLOCK_ROWS = 256  # at most this many rows are parsed or formatted at a time,
BLOCK_FIELDS = 16 * BLOCK_ROWS  # and this many fields: a wide table gets fewer rows
_QUOTE_CHARS = tuple(',"\r\n\0')  # text fields holding one are quoted, or a NUL rejected
_NEEDS_QUOTES = re.compile(f"[{''.join(_QUOTE_CHARS)}]")  # per field; `in` scans a block faster

_AREA_CUES = (
    ("eye_sum", FLOAT), ("eye_diff", FLOAT), ("brow_sum", FLOAT), ("brow_diff", FLOAT),
)
MATCH_SCHEMA = (
    ("a_id", STR), ("b_id", STR), ("side", STR), ("label", LABEL),
    ("iris_valid", FLAG), ("hamming", OPT_FLOAT), ("ws", OPT_FLOAT),
    ("best_shift", OPT_INT), ("joint_valid", OPT_INT),
    ("mask_rate_a", FLOAT), ("mask_rate_b", FLOAT), ("perioc_dist", FLOAT),
    *_AREA_CUES,
)
SCORE_SCHEMA = (
    ("a_id", STR), ("b_id", STR), ("side", STR), ("label", LABEL),
    ("iris_score", OPT_FLOAT), ("perioc_norm", OPT_FLOAT),
    ("mask_rate_a", FLOAT), ("mask_rate_b", FLOAT), *_AREA_CUES,
    ("hamming", OPT_FLOAT), ("ws", OPT_FLOAT),
    ("static", OPT_FLOAT), ("dynamic", OPT_FLOAT),
)
ROC_SCHEMA = (("threshold", FLOAT), ("far", FLOAT), ("tar", FLOAT))


def _column(kind: str, texts: tuple[str, ...]):
    """One non-FLOAT column's fields as an array, or None if any field is invalid."""
    if kind == STR:  # a <U array would drop a trailing NUL
        return None if "\0" in "".join(texts) else np.array(texts, dtype=str)
    if kind in (LABEL, FLAG):
        true, false = LABELS if kind == LABEL else ("1", "0")
        return np.array(texts, dtype=str) == true if set(texts) <= {true, false} else None
    try:
        if kind == OPT_INT:
            values = np.fromiter((int(t) if t else math.nan for t in texts), np.float64, len(texts))
        else:  # numpy parses each str with Python's float(), so the same texts pass
            values = np.array([t or "nan" for t in texts], np.float64)
    except (ValueError, OverflowError):
        return None
    ok = np.abs(values) < _INT_LIMIT if kind == OPT_INT else np.isfinite(values)
    return values if np.count_nonzero(ok) == len(texts) - texts.count("") else None


def _columns(schema, texts: list[tuple[str, ...]], picks):
    """The arrays of columns ``picks`` (schema indices) of a block's column
    texts, or None if any field is invalid.  The FLOAT columns are cast in
    one call, a wide table's many at once."""
    floats = [i for i in picks if schema[i][1] == FLOAT]
    try:  # each str parsed as by _column
        cast = np.array([texts[i] for i in floats], np.float64, ndmin=2)
    except ValueError:
        return None
    if not np.isfinite(cast).all():
        return None
    parsed = dict(zip(floats, cast))
    columns = [parsed[i] if i in parsed else _column(schema[i][1], texts[i]) for i in picks]
    return None if any(c is None for c in columns) else columns


def _field_error(kind: str, text: str) -> str | None:
    """Why one field is invalid, or None; mirrors :func:`_columns`."""
    if kind == STR:
        return f"NUL character in {text!r}" if "\0" in text else None
    if text == "" and kind in (OPT_FLOAT, OPT_INT):
        return None
    if kind in (LABEL, FLAG):
        return None if _column(kind, (text,)) is not None else f"bad {kind} {text!r}"
    if kind == OPT_INT:
        try:
            value = int(text)
        except ValueError:
            return f"not an integer: {text!r}"
        return None if abs(value) < _INT_LIMIT else f"integer out of range: {text!r}"
    try:
        value = float(text)
    except ValueError:
        return f"not a number: {text!r}"
    return None if math.isfinite(value) else "non-finite value"


def _parse_block(rows: list[list[str]], schema, source: str, first_line: int, picks):
    """The arrays, and the tuples of field texts, of columns ``picks``
    (schema indices) of a block of data rows.  Every row's field count is
    checked; the first bad field of a picked column, in file order, raises
    a :class:`ParseError` naming its line and column."""
    width = len(schema)
    if all(len(row) == width for row in rows):
        texts = list(zip(*rows)) or [()] * width
        columns = _columns(schema, texts, picks)
        if columns is not None:
            return columns, [texts[i] for i in picks]
    for line, row in enumerate(rows, start=first_line):
        if len(row) != width:
            raise ParseError(f"{source}:{line}: expected {width} fields, got {len(row)}")
        for i in picks:
            name, kind = schema[i]
            error = _field_error(kind, row[i])
            if error:
                raise ParseError(f"{source}:{line}: column {name!r}: {error}")
    raise AssertionError("_columns and _field_error disagree")


def _block_rows(schema) -> int:
    return max(1, min(BLOCK_ROWS, BLOCK_FIELDS // len(schema)))


def _row_blocks(path, schema_of):
    """The schema that ``schema_of`` gives for the header row of the table
    at ``path`` (None for an empty file), then ``(first line, rows)`` of
    each block of its data rows; a table without data rows gives one
    empty block.  Rows are lines split at ``,`` up to the first block
    holding a ``"``, ``\\r``, NUL or a line longer than
    ``csv.field_size_limit()``; from there a ``csv.reader`` parses every
    line, since a quoted field may span lines and blocks.  A ``csv.Error``
    (an oversized field, or a NUL before Python 3.11) is a
    :class:`ParseError` at its line."""
    with _open_reader(path) as fh:
        reader, lines_split = None, 0

        def take(n: int) -> list[list[str]]:
            nonlocal reader, lines_split
            if reader is None:
                lines = list(itertools.islice(fh, n))
                text, limit = "".join(lines), csv.field_size_limit()
                if not ('"' in text or "\r" in text or "\0" in text
                        or len(text) > limit and max(map(len, lines)) > limit):
                    lines_split += len(lines)
                    lines = text.split("\n")
                    if not lines[-1]:  # after a final \n
                        lines.pop()
                    return [line.split(",") if line else [] for line in lines]  # as csv reads it
                reader = csv.reader(itertools.chain(lines, fh))
            try:
                return list(itertools.islice(reader, n))
            except csv.Error as exc:
                raise ParseError(f"{path}:{lines_split + reader.line_num}: {exc}") from exc

        schema = schema_of((take(1) or [None])[0])
        yield schema
        line, step = 2, _block_rows(schema)
        rows = take(step)
        while True:
            yield line, rows
            line += len(rows)
            if not (rows := take(step)):
                return


def _picks(schema, columns) -> list[int]:
    """Schema indices of the named columns in file order, or of all columns
    for None; an unknown name raises ``ValueError``."""
    names = [name for name, _ in schema]
    if columns is None:
        return list(range(len(names)))
    unknown = [name for name in columns if name not in names]
    if unknown:
        raise ValueError(f"no column {unknown[0]!r} in {names}")
    return [i for i, name in enumerate(names) if name in columns]


def _table_blocks(path, schema, what: str, columns=None):
    """The requested columns (all for None) of each block of a table's data
    rows, as a pair of dicts in file order: the parsed arrays and the
    tuples of field texts they were parsed from.  The header is checked in full
    and every row's field count, but only the requested columns are parsed,
    so a bad field in another column goes unreported.  A table without data
    rows gives one block of empty arrays.  An unknown column name raises
    ``ValueError`` before the file is opened."""
    picks = _picks(schema, columns)
    names = [schema[i][0] for i in picks]

    def blocks():
        source = str(path)

        def checked(header):
            if header != [name for name, _ in schema]:
                raise ParseError(f"{source}:1: bad {what} header")
            return schema

        row_blocks = _row_blocks(path, checked)
        next(row_blocks)  # the schema
        for n, rows in row_blocks:
            arrays, texts = _parse_block(rows, schema, source, n, picks)
            yield dict(zip(names, arrays)), dict(zip(names, texts))

    return blocks()


def _read_table(path, schema, what: str, columns=None) -> dict[str, np.ndarray]:
    parts: dict[str, list[np.ndarray]] = {}  # each column's block arrays
    for block, _ in _table_blocks(path, schema, what, columns):
        for name, values in block.items():
            parts.setdefault(name, []).append(values)
    table = {}
    for name, column in parts.items():
        table[name] = np.concatenate(column)
        column.clear()  # drop its blocks before the next column is joined
    return table


def _nul_error(name: str) -> ValueError:
    return ValueError(f"column {name!r}: text holds a NUL character")


def _quoted(name: str, texts: list[str]) -> list[str]:
    """Text fields as written (see :data:`_QUOTE_CHARS`)."""
    joined = "".join(texts)
    if not any(c in joined for c in _QUOTE_CHARS):
        return texts
    if "\0" in joined:
        raise _nul_error(name)
    return ['"' + t.replace('"', '""') + '"' if _NEEDS_QUOTES.search(t) else t for t in texts]


def _format(name: str, kind: str, values: np.ndarray) -> list[str]:
    """One column's fields as written; an object array holds field texts,
    which are quoted as text fields are (a number may hold ``\\r`` or ``\\n``
    around its digits)."""
    if kind == STR or values.dtype == object:
        return _quoted(name, values.tolist())
    return _texts(kind, values)


def _texts(kind: str, values: np.ndarray) -> list[str]:
    """The unquoted field texts of a column's checked array."""
    if kind == STR:
        return values.tolist()
    if kind in (LABEL, FLAG):
        true, false = LABELS if kind == LABEL else ("1", "0")
        return [true if v else false for v in values.tolist()]
    if kind == FLOAT:
        return list(map(repr, values.tolist()))
    empty = np.isnan(values)
    texts = (list(map(repr, values.tolist())) if kind == OPT_FLOAT
             else list(map(str, map(int, np.where(empty, 0.0, values).tolist()))))
    for i in np.flatnonzero(empty).tolist():
        texts[i] = ""
    return texts


def _as_column(name: str, kind: str, values) -> np.ndarray:
    """``values`` as the column's array, or the object array of its
    :class:`FieldTexts` when their kind is the column's; Python strings are
    checked for a NUL first, since a ``<U`` array drops a trailing one, and
    a label or flag column must hold booleans, not values numpy would cast
    by truthiness."""
    if isinstance(values, FieldTexts):
        if values.kind != kind:
            raise ValueError(
                f"column {name!r}: {values.kind} field texts given for a {kind} column")
        return values.texts
    if _DTYPES[kind] is str and not isinstance(values, np.ndarray):
        if "\0" in "".join(map(str, values)):
            raise _nul_error(name)
    if _DTYPES[kind] is bool:
        values = np.asarray(values)
        if values.dtype != bool and values.size:
            raise ValueError(f"column {name!r}: a {kind} column takes booleans, "
                             f"got {values.dtype} values")
    return np.asarray(values, dtype=_DTYPES[kind])


def _check_readable(name: str, kind: str, values: np.ndarray, first_row: int) -> None:
    """Raise ``ValueError`` naming the column and row (counted from
    ``first_row``) of the first number that would not read back: a
    non-finite float, an infinite float?, or an int? that is not an
    integer below 2**53 in magnitude (NaN marks an empty float? or int?
    field).  Text and flag columns always read back."""
    if kind == FLOAT:
        bad = ~np.isfinite(values)
    elif kind == OPT_FLOAT:
        bad = np.isinf(values)
    elif kind == OPT_INT:
        exact = (np.abs(values) < _INT_LIMIT) & (np.trunc(values) == values)
        bad = ~(exact | np.isnan(values))
    else:
        return
    if bad.any():
        row = int(bad.argmax())
        raise ValueError(f"column {name!r}: row {first_row + row}: "
                         f"{float(values[row])!r} would not read back as {kind}")


def field_texts(name: str, kind: str, values) -> FieldTexts:
    """The field texts a writer would write for ``values`` as column
    ``name`` of ``kind``, unquoted; a NUL, or a number that would not read
    back, raises ``ValueError`` as the writer does."""
    values = _as_column(name, kind, values)
    _check_readable(name, kind, values, 0)
    return FieldTexts(kind, np.array(_texts(kind, values), dtype=object))


@contextlib.contextmanager
def _replacing_writer(path):
    """Yield a text file that replaces ``path`` only when the ``with``
    block exits without error.  It is written as a temporary file beside
    ``path``, so a fault leaves no partial file and an existing ``path``
    untouched."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    fh = _open_writer(tmp, "x")  # exclusive, so a clash never clobbers another writer's file
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, payload) -> str:
    """Write ``payload`` as indented, key-sorted JSON through
    :func:`_replacing_writer`; returns the text written."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with _replacing_writer(path) as fh:
        fh.write(text)
    return text


@contextlib.contextmanager
def _table_writer(path, schema):
    """Write a table block by block: yields ``append(table)``, which checks a
    block's columns and adds its rows.  A column holding a NUL, a number
    that would not read back, or :class:`FieldTexts` of another kind,
    raises ``ValueError`` naming the column (and the row, counted from 0
    over all blocks); field texts are written unchecked.  The rows go
    through :func:`_replacing_writer`, so a fault leaves no partial table
    and an existing ``path`` untouched."""
    step = _block_rows(schema)
    rows_written = 0

    def append(table: Mapping[str, np.ndarray]) -> None:
        nonlocal rows_written
        columns = [(name, kind, _as_column(name, kind, table[name])) for name, kind in schema]
        n = len(columns[0][2])
        if any(len(values) != n for _, _, values in columns):
            raise ValueError("table columns differ in length")
        for name, kind, values in columns:
            if values.dtype != object:  # field texts were checked when they were made
                _check_readable(name, kind, values, rows_written)
        for start in range(0, n, step):
            fields = [_format(name, kind, v[start : start + step]) for name, kind, v in columns]
            if len(fields) == 1:  # an empty line would read back as no fields
                fields = [[t or '""' for t in fields[0]]]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")
        rows_written += n

    with _replacing_writer(path) as fh:
        fh.write(",".join(name for name, _ in schema) + "\n")
        yield append


def _write_table(path, schema, table: Mapping[str, np.ndarray]) -> None:
    with _table_writer(path, schema) as append:
        append(table)


def write_match_csv(path, table: Mapping[str, np.ndarray]) -> None:
    _write_table(path, MATCH_SCHEMA, table)


def read_match_csv(path, columns=None) -> dict[str, np.ndarray]:
    """The named columns (all for None) of a match CSV; see :func:`_table_blocks`."""
    return _read_table(path, MATCH_SCHEMA, "match-table", columns)


def read_match_blocks(path, columns=None):
    """The named columns (all for None) of each block of a match CSV's
    rows, as a pair of dicts by column name: the parsed arrays, and the
    :class:`FieldTexts` of the fields they were parsed from; see
    :func:`_table_blocks`."""
    kinds = dict(MATCH_SCHEMA)
    return (
        (arrays, {name: FieldTexts(kinds[name], np.array(t, dtype=object))
                  for name, t in texts.items()})
        for arrays, texts in _table_blocks(path, MATCH_SCHEMA, "match-table", columns)
    )


def write_score_csv(path, table: Mapping[str, np.ndarray]) -> None:
    _write_table(path, SCORE_SCHEMA, table)


def score_csv_writer(path):
    """A context manager that writes a score CSV block by block: it yields
    ``append(table)``; see :func:`_table_writer`."""
    return _table_writer(path, SCORE_SCHEMA)


def read_score_csv(path, columns=None) -> dict[str, np.ndarray]:
    """The named columns (all for None) of a score CSV; see :func:`_table_blocks`."""
    return _read_table(path, SCORE_SCHEMA, "score-table", columns)


def write_roc_csv(path, curve: RocCurve) -> None:
    tar = np.asarray(curve.tar, dtype=np.float64)
    _check_readable("tar", FLOAT, tar, 0)  # naming the row as the writer would
    # tar takes at most n_genuine + 1 values: each distinct one (by its bits,
    # so 0.0 and -0.0 stay apart) is formatted once
    bits, rows = np.unique(tar.view(np.uint64), return_inverse=True)
    texts = field_texts("tar", FLOAT, bits.view(np.float64)).texts[rows]
    _write_table(
        path, ROC_SCHEMA,
        {"threshold": curve.thresholds, "far": curve.far, "tar": FieldTexts(FLOAT, texts)},
    )


def read_roc_csv(path) -> RocCurve:
    table = _read_table(path, ROC_SCHEMA, "ROC")
    return RocCurve(thresholds=table["threshold"], far=table["far"], tar=table["tar"])


# ---------------------------------------------------------------------------
# Periocular feature CSV: id, eye_area, brow_area, f0..f{D-1}, one row per
# sample in id order, through the table codec


def _feature_schema(dim: int):
    return (("id", STR), ("eye_area", FLOAT), ("brow_area", FLOAT),
            *((f"f{i}", FLOAT) for i in range(dim)))


def _area_fault(eye: np.ndarray, brow: np.ndarray) -> tuple[int, str] | None:
    """The first row whose areas are not fractions of one image, and why;
    None if every row's are."""
    bad = ~((0 <= eye) & (eye <= 1) & (0 <= brow) & (brow <= 1) & (eye + brow <= 1))
    if not bad.any():
        return None
    row = int(bad.argmax())
    eye_area, brow_area = float(eye[row]), float(brow[row])
    for name, value in (("eye_area", eye_area), ("brow_area", brow_area)):
        if not 0.0 <= value <= 1.0:
            return row, f"{name} must lie in [0, 1], got {value}"
    return row, f"eye_area + brow_area must not exceed 1, got {eye_area} + {brow_area}"


def write_feature_csv(path, table: Mapping[str, np.ndarray]) -> None:
    """Write a feature table (as :func:`read_feature_csv` gives it) in id
    order; an empty table, or one the reader would reject, raises ``ValueError``."""
    ids = _as_column("id", STR, table["id"])
    if not ids.size:
        raise ValueError("refusing to write an empty feature table")
    eye, brow, features = (np.asarray(table[name], dtype=np.float64)
                           for name in ("eye_area", "brow_area", "features"))
    if features.ndim != 2 or not features.shape[1]:
        raise ValueError(f"features must be an (n, D) matrix, got shape {features.shape}")
    if not len(ids) == len(eye) == len(brow) == len(features):
        raise ValueError("table columns differ in length")
    order = np.argsort(ids, kind="stable")
    ids, eye, brow, features = ids[order], eye[order], brow[order], features[order]
    duplicate = np.flatnonzero(ids[1:] == ids[:-1])
    if duplicate.size:
        raise ValueError(f"duplicate id {str(ids[duplicate[0]])!r}")
    if fault := _area_fault(eye, brow):
        raise ValueError(f"id {str(ids[fault[0]])!r}: {fault[1]}")
    schema = _feature_schema(features.shape[1])
    _write_table(path, schema, dict(zip([name for name, _ in schema],
                                        [ids, eye, brow, *features.T])))


def _feature_block(rows, schema, source: str, first_line: int, seen: set) -> list[np.ndarray]:
    """The columns of a block of feature rows, adding their ids to ``seen``.
    The first fault in file order raises a :class:`ParseError`; within a row,
    a wrong field count comes first, then a duplicate id, a bad field, the areas."""
    try:
        columns, _ = _parse_block(rows, schema, source, first_line, range(len(schema)))
    except ParseError:
        if len(rows) > 1:  # one row at a time, so that an earlier duplicate id or area wins
            for k, row in enumerate(rows):
                _feature_block([row], schema, source, first_line + k, seen)
        elif len(rows[0]) == len(schema) and rows[0][0] in seen:
            raise ParseError(f"{source}:{first_line}: duplicate id {rows[0][0]!r}") from None
        raise
    refs = columns[0].tolist()  # each added to seen up to the first one already there
    duplicate = next((k for k, ref in enumerate(refs) if ref in seen or seen.add(ref)), None)
    fault = _area_fault(columns[1], columns[2])
    if duplicate is not None and (fault is None or duplicate <= fault[0]):
        raise ParseError(f"{source}:{first_line + duplicate}: duplicate id {refs[duplicate]!r}")
    if fault:
        raise ParseError(f"{source}:{first_line + fault[0]}: {fault[1]}")
    return columns


def read_feature_csv(path) -> dict[str, np.ndarray]:
    """The feature table at ``path``: a dict of its columns in file order,
    ``id`` (str), ``eye_area`` and ``brow_area`` (float64, fractions of the
    image: each in [0, 1], summing to at most 1) and ``features``, one
    ``(n, D)`` float64 matrix.  Rows are in file order, each id once.  The
    first bad field, duplicate id or pair of areas in file order raises a
    :class:`ParseError` naming its line, as does a bad header or no data row."""
    source = str(path)

    def schema_of(header):
        if header is None or header[:3] != ["id", "eye_area", "brow_area"]:
            raise ParseError(f"{source}:1: bad feature-table header")
        schema = _feature_schema(len(header) - 3)
        if len(schema) < 4 or header != [name for name, _ in schema]:
            raise ParseError(f"{source}:1: bad feature column names")
        return schema

    blocks = _row_blocks(path, schema_of)
    schema = next(blocks)
    seen: set[str] = set()
    parts = []
    for line, rows in blocks:
        ids, eye, brow, *features = _feature_block(rows, schema, source, line, seen)
        # copies, so that the block's parsed columns are freed with it; the
        # features as one (D, rows) array, transposed to a C-order matrix
        parts.append((ids, eye.copy(), brow.copy(), np.array(features).T.copy()))
    if not seen:
        raise ParseError(f"{source}: no data rows")
    return dict(zip(("id", "eye_area", "brow_area", "features"), map(np.concatenate, zip(*parts))))


# ---------------------------------------------------------------------------
# Fusion checkpoint: network parameters + normalization + provenance


def write_checkpoint(
    path,
    params: MlpParams,
    norm: NormalizationParams,
    train_config: TrainConfig | None = None,
) -> None:
    """Write the network, its normalization and ``train_config`` as
    ``dataclasses.asdict`` of it (null for None) through :func:`write_json`."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "layer_sizes": list(LAYER_SIZES),
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "normalization": {
            "perioc_min": norm.perioc_min,
            "perioc_max": norm.perioc_max,
        },
        "train_config": None if train_config is None else dataclasses.asdict(train_config),
    }
    write_json(path, payload)


def _check_numbers(name: str, value) -> None:
    """Reject a value, or a leaf of its nested lists, that is not a JSON number."""
    if isinstance(value, list):
        for item in value:
            _check_numbers(name, item)
    elif type(value) not in (int, float):
        raise ValueError(f"{name}: expected a JSON number, got {value!r}")


def read_checkpoint(path) -> tuple[MlpParams, NormalizationParams, dict | None]:
    source = str(path)
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: invalid JSON: {exc.msg}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ParseError(f"{source}: not a fusion checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ParseError(f"{source}: unsupported version {payload.get('version')!r}")
    if payload.get("layer_sizes") != list(LAYER_SIZES):
        raise ParseError(
            f"{source}: layer sizes {payload.get('layer_sizes')} != {list(LAYER_SIZES)}"
        )
    try:
        norm_obj = payload["normalization"]
        # the constructors would coerce texts and bools (a bool is no JSON number)
        for name in ("weights", "biases"):
            _check_numbers(name, payload[name])
        for name in ("perioc_min", "perioc_max"):
            _check_numbers(name, norm_obj[name])
        params = MlpParams.from_layers(payload["weights"], payload["biases"])
        norm = NormalizationParams(
            perioc_min=norm_obj["perioc_min"], perioc_max=norm_obj["perioc_max"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{source}: {exc}") from exc
    return params, norm, payload.get("train_config")


# ---------------------------------------------------------------------------
# Sidecar: the matcher settings that a match CSV, and the score CSV made
# from it, were scored with

SIDECAR_KEYS = ("alpha", "max_shift", "step", "protocol", "unmasked_ws")


def sidecar_path(table) -> Path:
    """``<table>.meta.json``, the sidecar beside a match or score CSV."""
    table = Path(table)
    return table.with_name(f"{table.name}.meta.json")


def write_sidecar(table, settings: dict) -> None:
    """Write ``settings``, keyed by :data:`SIDECAR_KEYS`, as the sidecar of
    ``table`` through :func:`write_json`."""
    write_json(sidecar_path(table), settings)


def read_sidecar(table) -> dict:
    """The matcher settings in the sidecar of ``table``, as written.

    A missing file, a file that is not JSON, keys other than
    :data:`SIDECAR_KEYS`, an ``alpha`` that is not a number inside
    (0, 2), a ``max_shift`` and ``step`` that are not integers of a valid
    :class:`ShiftPolicy`, an unknown ``protocol`` or an ``unmasked_ws``
    that is not a bool raise :class:`ParseError` naming the sidecar.
    """
    path = sidecar_path(table)
    try:
        settings = json.loads(path.read_bytes())
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: missing; match writes it beside its CSV") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(settings, dict) or set(settings) != set(SIDECAR_KEYS):
        raise ParseError(f"{path}: expected exactly the keys {sorted(SIDECAR_KEYS)}")
    try:
        if type(settings["alpha"]) not in (int, float):
            raise ValueError(f"alpha must be a number, got {settings['alpha']!r}")
        _check_alpha(settings["alpha"])
        if {type(settings["max_shift"]), type(settings["step"])} != {int}:
            raise ValueError("max_shift and step must be integers")
        ShiftPolicy(settings["max_shift"], settings["step"])
        if settings["protocol"] not in PROTOCOLS:
            raise ValueError(f"unknown protocol {settings['protocol']!r}")
        if type(settings["unmasked_ws"]) is not bool:
            raise ValueError(
                f"unmasked_ws must be true or false, got {settings['unmasked_ws']!r}")
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return settings
