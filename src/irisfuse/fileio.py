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
and :data:`BLOCK_FIELDS` fields.  A reader takes the text
:data:`READ_CHARS` characters at a time and splits each line at ``,``
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
column that does not hold booleans, in the append that carries it.  It
writes each float as its ``repr`` text without calling ``repr`` per
field: appended rows wait until their float fields number
:data:`FORMAT_FIELDS` (a row's more at most), which are formatted in
one exact numpy pass (:func:`_repr_texts`; a value outside its range,
such as a subnormal, by ``repr`` itself), and are then written a block
at a time.  :func:`write_json`, for
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
import io
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
READ_CHARS = 64 * 1024  # a reader takes a table's text in reads of this many characters
# a writer formats about this many floats at once: fewer pay more numpy calls
# a float, more save little and hold more field texts at once
FORMAT_FIELDS = 4096
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
        if not set(texts) <= {true, false}:
            return None
        return np.fromiter(map(true.__eq__, texts), bool, len(texts))
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
    empty block.  The text is read :data:`READ_CHARS` characters at a
    time.  Rows are lines split at ``,`` up to the first block holding a
    ``"``, ``\\r``, NUL or a line longer than ``csv.field_size_limit()``;
    from there a ``csv.reader`` parses every line, since a quoted field
    may span lines and blocks.  It is given the lines from that block on
    as iterating the file would give them.  A ``csv.Error`` (an oversized
    field, or a NUL before Python 3.11) is a :class:`ParseError` at its
    line."""
    with _open_reader(path) as fh:
        reader, lines_split = None, 0
        lines = [""]  # the text read and not yet taken, split at \n

        def take(n: int) -> list[list[str]]:
            nonlocal reader, lines_split
            if reader is None:
                while len(lines) <= n and (chunk := fh.read(READ_CHARS)):
                    lines[-1:] = (lines[-1] + chunk).split("\n")
                block = lines[:n]
                if len(lines) <= n and not block[-1]:  # at the end, after a final \n
                    block.pop()
                text, limit = "\n".join(block), csv.field_size_limit()
                if not ('"' in text or "\r" in text or "\0" in text
                        or len(text) > limit and max(map(len, block)) > limit):
                    lines_split += len(block)
                    del lines[:len(block)]
                    if not lines:  # the last line was taken
                        lines.append("")
                    return [line.split(",") if line else [] for line in block]  # as csv reads it
                # the line the text read ends in is completed from the file, so a
                # \r\n split between two reads stays one line end
                text = "\n".join(lines) + fh.readline()
                reader = csv.reader(itertools.chain(io.StringIO(text, newline=""), fh))
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
    """The requested columns of a table (see :func:`_table_blocks`), each
    joined from its block arrays."""
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


# Float texts.  repr writes the shortest digits that read back as the
# double, the nearest such digits if several are as short.  _repr_texts
# finds them for a whole array: writing x = m * 2**e and choosing k so that
# 10**16 <= x * 10**k < 10**17, X = x * 10**k = 4m * 5**k / 2**(2 - e - k),
# and the decimals that read back as x fill an interval of under 23 units
# around X (from (4m - 2) * 5**k, or (4m - 1) * 5**k at a binade's first
# double, to (4m + 2) * 5**k, over the same power of 2).  The products are
# exact 128-bit integers in two uint64 limbs, for 5**k < 2**63, and all
# integer work stays in uint64 (a uint64 array with an int64 one would be
# float64).  The digits are the integer in the interval with the most
# trailing zeros: at most one multiple of 100 fits, and among several
# multiples of 10, or integers, repr takes the one nearest X, ties to even.

_POW5 = np.array([5**k for k in range(28)], np.uint64)  # 5**k < 2**63
_DECPTS = range(-10, 18)  # the fast range's x = 0.d1d2... * 10**decpt
_TABLE_CHARS = " .-e+0123456789naif"  # a value's text table: its 17 digits, then these
_SPECIALS = ("0.0", "-0.0", "nan", "inf", "-inf")


def _layout(neg: int, decpt: int, nd: int) -> str:
    """repr of ``0.ABC... * 10**decpt`` with ``nd`` digits ``A``, ``B``, ...,
    negated if ``neg``: fixed notation for -4 < decpt <= 16."""
    digits = "ABCDEFGHIJKLMNOPQ"[:nd]
    if decpt <= -4 or decpt > 16:
        text = digits[0] + ("." + digits[1:] if nd > 1 else "") + f"e{decpt - 1:+03d}"
    elif decpt <= 0:
        text = "0." + "0" * -decpt + digits
    elif decpt < nd:
        text = digits[:decpt] + "." + digits[decpt:]
    else:
        text = digits + "0" * (decpt - nd) + ".0"
    return "-" * neg + text


def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """Each text layout as the rows of a value's text table that it reads,
    padded with spaces, and its length.  A digit layout's index is
    ``(neg * len(_DECPTS) + decpt - _DECPTS[0]) * 17 + nd - 1``; the
    :data:`_SPECIALS` follow them."""
    texts = [_layout(neg, decpt, nd) for neg in (0, 1) for decpt in _DECPTS
             for nd in range(1, 18)] + list(_SPECIALS)
    width = max(map(len, texts)) + 1  # at least one space after each text
    row_of = np.zeros(128, np.uint8)
    row_of[np.frombuffer(b"ABCDEFGHIJKLMNOPQ", np.uint8)] = np.arange(17)
    row_of[np.frombuffer(_TABLE_CHARS.encode(), np.uint8)] = 17 + np.arange(len(_TABLE_CHARS))
    codes = np.frombuffer("".join(text.ljust(width) for text in texts).encode(), np.uint8)
    return row_of[codes].reshape(len(texts), width), np.array(list(map(len, texts)))


_LAYOUTS, _LAYOUT_LENGTHS = _layouts()


def _product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * b`` for ``a < 2**55`` and ``b < 2**63``, as (high, low) uint64 limbs."""
    low32, u32 = np.uint64(2**32 - 1), np.uint64(32)
    a0, a1, b0, b1 = a & low32, a >> u32, b & low32, b >> u32
    low = a0 * b0
    middle = a0 * b1 + a1 * b0
    carry = low > low + (middle << u32)
    low += middle << u32
    return a1 * b1 + (middle >> u32) + carry, low


def _shifted(high, low, shift) -> np.ndarray:
    """``(high, low) // 2**shift`` for shifts up to 64, where it is below
    2**64 (numpy shifts a uint64 by 64 to 0)."""
    return (low >> shift) | (high << (np.uint64(64) - shift))


def _interval(mantissa, shift, pow5, first_of_binade):
    """X = 2 * mantissa * 5**k / 2**shift as its integer part, whether its
    fraction is at least 1/2 and whether it holds more than that; then the
    first integer above the lower end of the interval around X and the
    last one not above its upper end.  The ends read back as x iff the
    mantissa is even, but no end decides a digit: an end is an integer
    only for a shift of 0, and then an odd one, neither a multiple of 10
    nor nearer X than X itself.  As log10 is off by one at most,
    X < 10**18 and each quotient is below 2**64."""
    high, low = _product(mantissa << np.uint64(2), pow5)
    twice = _shifted(high, low, shift)
    sticky = (low << (np.uint64(64) - shift)) != 0
    below = np.where(first_of_binade, pow5, pow5 << np.uint64(1))
    above = low + (pow5 << np.uint64(1))
    shift = shift + np.uint64(1)
    bottom = _shifted(high - (low < below), low - below, shift)
    top = _shifted(high + (above < low), above, shift)
    half = (twice & np.uint64(1)).astype(bool)
    return twice >> np.uint64(1), half, sticky, bottom + 1, top


def _decimal(x: np.ndarray):
    """repr's digits of each double of the fast range as the integer
    ``n``, with ``x = n * 10**-k`` to 17 significant digits; ``k``;
    whether ``n`` is a multiple of 10, and of 100; and which doubles are
    in the fast range.  A double whose digits round up to the next power
    of 10 is left out: it lies within 1e-16 of that power, where log10
    returns the power's exponent, so X falls below the range anyway."""
    bits = x.view(np.uint64)
    biased = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    fraction = bits & np.uint64(2**52 - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 16 - np.floor(np.log10(np.abs(x)))  # off by one near a power of 10: checked below
    e = biased.astype(np.int64) - 1075  # x = mantissa * 2**e
    fast = (biased != 0) & (k >= 0) & (k < len(_POW5)) & (e + k <= 1)
    k = np.where(fast, k, 0).astype(np.int64)
    center, half, sticky, first, last = _interval(
        fraction | np.uint64(2**52), np.where(fast, 1 - e - k, 0).astype(np.uint64), _POW5[k],
        (fraction == 0) & (biased > 1))
    fast &= (center >= 10**16) & (center < 10**17)
    hundred = (first + np.uint64(99)) // np.uint64(100) * np.uint64(100)
    has_hundred = hundred <= last
    tens_first, tens_last = (first + np.uint64(9)) // np.uint64(10), last // np.uint64(10)
    has_ten = tens_first <= tens_last
    # the multiple of 10, or the integer, nearest X, ties to even
    tens, ones = np.divmod(center, np.uint64(10))
    tens += (ones > 5) | ((ones == 5) & (half | sticky | (tens & np.uint64(1)).astype(bool)))
    n = np.where(has_hundred, hundred, np.where(
        has_ten, np.clip(tens, tens_first, tens_last) * np.uint64(10),
        center + (half & (sticky | (center & np.uint64(1)).astype(bool)))))
    return n, k, has_ten, has_hundred, fast & (n < 10**17)


def _digit_table(n, has_ten, has_hundred) -> tuple[np.ndarray, np.ndarray]:
    """Each value's text table, a row of its 17 digits (most significant
    first) and :data:`_TABLE_CHARS`, and how many digits are significant:
    17 for the integer, 16 for the multiple of 10, fewer for the multiple
    of 100."""
    digits = np.empty((17, n.size), np.uint8)
    upper = n // np.uint64(10**9)
    for part, places in (((n - upper * np.uint64(10**9)).astype(np.uint32), range(16, 7, -1)),
                         (upper.astype(np.uint32), range(7, -1, -1))):
        for j in places:
            quotient = part // np.uint32(10)
            digits[j] = part - quotient * np.uint32(10)
            part = quotient
    significant = 17 - has_ten.astype(np.int64)
    rows = np.flatnonzero(has_hundred)
    for j in range(15, 0, -1):  # rows whose digit j is a trailing zero
        significant[rows] -= 1
        rows = rows[digits[j - 1, rows] == 0]
    table = np.empty((n.size, 17 + len(_TABLE_CHARS)), np.uint8)
    table[:, :17] = digits.T
    table[:, :17] += ord("0")
    table[:, 17:] = np.frombuffer(_TABLE_CHARS.encode(), np.uint8)
    return table, significant


def _text_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's text as a row of bytes, padded with spaces, and which
    values are left to ``repr`` (their rows hold other text)."""
    n, k, has_ten, has_hundred, fast = _decimal(x)
    table, significant = _digit_table(n, has_ten, has_hundred)
    bits = x.view(np.uint64)
    neg = (bits >> np.uint64(63)).astype(np.int64)
    layout = (neg * len(_DECPTS) + 17 - k - _DECPTS[0]) * 17 + significant - 1
    zero, nonfinite = bits << np.uint64(1) == 0, bits << np.uint64(1) >= np.uint64(0x7FF << 53)
    special = 17 * 2 * len(_DECPTS) + np.where(zero, neg, np.where(
        bits << np.uint64(12) != 0, 2, 3 + neg))  # 0.0, -0.0, nan, inf, -inf
    layout = np.where(fast, layout, np.where(zero | nonfinite, special, 0))
    width = int(_LAYOUT_LENGTHS[layout].max()) + 1
    text = np.empty((x.size, width), np.uint8)
    for start in range(0, x.size, 1024):  # the gather's indices 1024 rows at a time
        rows = slice(start, start + 1024)
        index = _LAYOUTS[layout[rows], :width] + np.arange(
            start * table.shape[1], min(start + 1024, x.size) * table.shape[1],
            table.shape[1], dtype=np.intp)[:, None]
        table.reshape(-1).take(index, out=text[rows], mode="clip")  # unbuffered
    return text, ~(fast | zero | nonfinite)


def _repr_texts(values: np.ndarray) -> list[str]:
    """``list(map(repr, values.tolist()))`` for a float64 array, in one
    numpy pass (see above).  Normal doubles of 1e-11 <= |x| < 2**53 (and
    of 1e16 <= |x| < 2**54), zeros and non-finite values take the pass;
    the texts of others come from ``repr`` itself."""
    x = np.ascontiguousarray(values, np.float64).reshape(-1)
    if not x.size:
        return []
    text, slow = _text_rows(x)
    texts = text.tobytes().decode("ascii").split()
    for i in np.flatnonzero(slow).tolist():
        texts[i] = repr(float(x[i]))
    return texts


def _float_texts(columns: list[np.ndarray]) -> list[list[str]]:
    """The field texts of float columns, formatted in one
    :func:`_repr_texts` call: each number's ``repr``, NaN (an empty
    ``float?`` field) as ``""``."""
    texts = _repr_texts(np.concatenate(columns)) if columns else []
    fields, start = [], 0
    for values in columns:
        column = texts[start : start + len(values)]
        start += len(values)
        for i in np.flatnonzero(np.isnan(values)).tolist():
            column[i] = ""
        fields.append(column)
    return fields


def _texts(kind: str, values: np.ndarray) -> list[str]:
    """The unquoted field texts of a column's checked array."""
    if kind == STR:
        return values.tolist()
    if kind in (LABEL, FLAG):
        true, false = LABELS if kind == LABEL else ("1", "0")
        return [true if v else false for v in values.tolist()]
    if kind in (FLOAT, OPT_FLOAT):
        return _float_texts([values])[0]
    empty = np.isnan(values)
    texts = list(map(str, map(int, np.where(empty, 0.0, values).tolist())))
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
    over all blocks); field texts are written unchecked.  Appended rows
    wait until their float fields to format number :data:`FORMAT_FIELDS`
    (a row's more at most); these are formatted in one call and the rows
    written a block at a time.  The rows go through
    :func:`_replacing_writer`, so a fault leaves no partial table and an
    existing ``path`` untouched."""
    step = _block_rows(schema)
    waiting = []  # the blocks not yet written, each with its columns of floats to format
    fields_waiting = rows_appended = 0

    def append(table: Mapping[str, np.ndarray]) -> None:
        nonlocal fields_waiting, rows_appended
        columns = [_as_column(name, kind, table[name]) for name, kind in schema]
        n = len(columns[0])
        if any(len(values) != n for values in columns):
            raise ValueError("table columns differ in length")
        is_text = [kind == STR or values.dtype == object  # field texts may hold \r or \n
                   for (_, kind), values in zip(schema, columns)]
        for (name, kind), values, text in zip(schema, columns, is_text):
            if not text:
                _check_readable(name, kind, values, rows_appended)
        rows_appended += n
        floats = [i for i, ((_, kind), text) in enumerate(zip(schema, is_text))
                  if kind in (FLOAT, OPT_FLOAT) and not text]
        per_row = max(1, len(floats))
        start = 0
        while start < n:  # the rows that fill the waiting floats up to FORMAT_FIELDS
            stop = start - (fields_waiting - FORMAT_FIELDS) // per_row
            waiting.append(([_quoted(name, values[start:stop].tolist()) if text else values[start:stop]
                             for (name, _), values, text in zip(schema, columns, is_text)], floats))
            fields_waiting += (min(stop, n) - start) * per_row
            start = stop
            if fields_waiting >= FORMAT_FIELDS:
                write_waiting()

    def write_waiting() -> None:
        nonlocal fields_waiting
        texts = iter(_float_texts([columns[i] for columns, floats in waiting for i in floats]))
        for columns, floats in waiting:
            columns = columns.copy()
            for i in floats:
                columns[i] = next(texts)
            for start in range(0, len(columns[0]), step):
                block = slice(start, start + step)
                fields = [values[block] if isinstance(values, list) else _texts(kind, values[block])
                          for (_, kind), values in zip(schema, columns)]
                if len(fields) == 1:  # an empty line would read back as no fields
                    fields = [[t or '""' for t in fields[0]]]
                fh.write("\n".join(map(",".join, zip(*fields))) + "\n")
        waiting.clear()
        fields_waiting = 0

    with _replacing_writer(path) as fh:
        fh.write(",".join(name for name, _ in schema) + "\n")
        yield append
        write_waiting()


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
    """Write ``curve``, every value as its ``repr``, :data:`FORMAT_FIELDS`
    rows an append."""
    thresholds, far, tar = (np.asarray(values, dtype=np.float64)
                            for values in (curve.thresholds, curve.far, curve.tar))
    # tar goes to the writer as field texts, which it writes unchecked: its
    # first bad row is named here as the writer names those of the others
    _check_readable("tar", FLOAT, tar, 0)
    if not len(thresholds) == len(far) == len(tar):
        raise ValueError("table columns differ in length")
    with _table_writer(path, ROC_SCHEMA) as append:
        for start in range(0, len(tar), FORMAT_FIELDS):
            chunk = slice(start, start + FORMAT_FIELDS)
            # tar takes at most n_genuine + 1 values: each distinct one in a
            # chunk (by its bits, so 0.0 and -0.0 stay apart) is formatted once
            bits, inverse = np.unique(tar[chunk].view(np.uint64), return_inverse=True)
            tar_texts = np.array(_texts(FLOAT, bits.view(np.float64)), dtype=object)[inverse]
            append({"threshold": thresholds[chunk], "far": far[chunk],
                    "tar": FieldTexts(FLOAT, tar_texts)})


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
