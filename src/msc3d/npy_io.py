"""Strict reader/writer for 3-D volumes in the ``.npy`` version-1.0 format,
plus cohort manifest and batch CSV parsing.

On-disk layout handled here::

    \\x93NUMPY                       6-byte magic
    \\x01\\x00                        version (major, minor) = (1, 0)
    <H                              little-endian header length
    {'descr': '<f8', 'fortran_order': False, 'shape': (X, Y, Z), }
                                    ASCII dict, space-padded, ends in \\n
    raw little-endian payload       X*Y*Z elements, C order

Only little-endian float32/float64, C-order, 3-D payloads are accepted;
anything else is rejected with a specific error rather than coerced.
``read_npy`` checks that every value read is finite, one slab at a time as
it reads, and so hands ``Volume3D`` data it need not check again.
Written headers are padded so magic+version+length+dict total a multiple
of 64 bytes. The parser is deliberately independent of ``numpy.load`` so
that malformed files map to a stable, fine-grained error taxonomy.

Manifest CSV: UTF-8 with header ``subject_id,volume_path,age_years``.
Batch CSV: UTF-8 with header ``subject_id,scale_index,scale_factor,complexity``,
one row per subject and scale, as ``msc3d batch`` writes it.

Both CSVs are read whole as text by one column reader. A text with no ``"``,
no ``\r`` and no line longer than ``csv.field_size_limit()`` cannot hold a
quoted cell, so it is split on newlines and commas directly, with the row
widths checked on the flat cell list. Any other text, and any file whose
checks fail, goes through ``csv.reader`` row by row, which names the line
of the file that the first bad row starts on.

A batch CSV in the layout ``batch`` writes comes in blocks of K rows, one
per subject, each with the first block's scale-index and factor texts and
one id text. Its table is built with no per-row work: the ids are the
blocks' stripped first cells, which must be unique, the first block's K
distinct indices order the columns, and the complexity column is reshaped
to (subjects, K). Any other file takes the general path, which places each
row by its subject and scale and raises every error.
"""

from __future__ import annotations

import ast
import csv
import io
import math
import os
import struct
from dataclasses import dataclass
from itertools import count, repeat
from pathlib import Path
from typing import Iterator, NamedTuple, NoReturn, Sequence

import numpy as np

from . import coarse
from .errors import InputError
from .volume import Volume3D

MAGIC = b"\x93NUMPY"
SUPPORTED_DTYPES = ("<f4", "<f8")
_HEADER_ALIGN = 64


class NpyIoError(InputError):
    """Base for .npy read/write failures."""


class MagicMismatchError(NpyIoError):
    """File does not start with the .npy magic bytes."""


class UnsupportedVersionError(NpyIoError):
    """Format version other than 1.0."""


class UnsupportedDtypeError(NpyIoError):
    """descr is not little-endian float32/float64."""


class UnsupportedLayoutError(NpyIoError):
    """fortran_order is true; only C-order payloads are accepted."""


class HeaderMalformedError(NpyIoError):
    """Header dict is truncated, unparsable, or has wrong keys/types."""


class BadShapeError(NpyIoError):
    """Declared shape is not a positive 3-D triple."""


class TruncatedError(NpyIoError):
    """Payload is shorter than the declared shape requires, or has bytes after it."""


class NonFiniteDataError(NpyIoError):
    """Payload read contains NaN or Inf, or one to write overflows float32."""


class IoFailureError(NpyIoError):
    """Underlying OS-level read/write failure."""


class ManifestError(InputError):
    """Base for manifest CSV failures."""


class MissingColumnError(ManifestError):
    pass


class DuplicateSubjectError(ManifestError):
    pass


class NonPositiveAgeError(ManifestError):
    pass


class MalformedRowError(ManifestError):
    pass


class NotUtf8Error(ManifestError):
    """A CSV file whose bytes are not UTF-8 text."""


class ManifestEntry(NamedTuple):
    """One manifest row."""

    subject_id: str
    volume_path: str
    age_years: float


def _parse_header_dict(raw: bytes, path: Path) -> tuple[str, tuple[int, int, int]]:
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise HeaderMalformedError(f"{path}: header is not ASCII") from exc
    try:
        meta = ast.literal_eval(text.strip())
    except (ValueError, SyntaxError) as exc:
        raise HeaderMalformedError(f"{path}: cannot parse header dict") from exc
    if not isinstance(meta, dict) or set(meta) != {"descr", "fortran_order", "shape"}:
        raise HeaderMalformedError(f"{path}: header dict must have exactly descr/fortran_order/shape")
    descr = meta["descr"]
    if not isinstance(descr, str) or descr not in SUPPORTED_DTYPES:
        raise UnsupportedDtypeError(
            f"{path}: dtype {descr!r} not supported (expected one of {SUPPORTED_DTYPES})"
        )
    order = meta["fortran_order"]
    if not isinstance(order, bool):
        raise HeaderMalformedError(f"{path}: fortran_order must be a boolean")
    if order:
        raise UnsupportedLayoutError(f"{path}: Fortran-order payloads are rejected, convert to C order")
    shape = meta["shape"]
    # bool is an int subclass, but True is no dimension
    if not isinstance(shape, tuple) or not all(type(d) is int for d in shape):
        raise HeaderMalformedError(f"{path}: shape must be a tuple of ints")
    if len(shape) != 3 or min(shape) < 1:
        raise BadShapeError(f"{path}: expected a positive 3-D shape, got {shape}")
    return descr, shape


def _read_header_from(fh, path: Path) -> tuple[str, tuple[int, int, int]]:
    """The ``(descr, shape)`` of the v1.0 header that ``fh`` starts with."""
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise MagicMismatchError(f"{path}: not an .npy file")
    version = fh.read(2)
    if len(version) < 2:
        raise HeaderMalformedError(f"{path}: file ends inside the version field")
    if version != b"\x01\x00":
        raise UnsupportedVersionError(
            f"{path}: version {version[0]}.{version[1]} not supported (need 1.0)"
        )
    raw_len = fh.read(2)
    if len(raw_len) < 2:
        raise HeaderMalformedError(f"{path}: file ends inside the header-length field")
    (header_len,) = struct.unpack("<H", raw_len)
    header = fh.read(header_len)
    if len(header) < header_len:
        raise HeaderMalformedError(f"{path}: file ends inside the header dict")
    return _parse_header_dict(header, path)


def read_npy(path: str | Path) -> Volume3D:
    """Read a 3-D little-endian float volume; values are widened to float64.

    The payload is read ``coarse.SLAB_ELEMENTS`` values at a time, and each
    slab is checked for NaN and Inf in the file's own dtype: a ``<f4`` slab
    in one slab buffer, before it is widened into the volume, a ``<f8`` slab
    in the volume itself. So the float64 volume, a fresh read-only array, is
    the only full-size array the read makes, and ``Volume3D`` does not check
    it again.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            descr, shape = _read_header_from(fh, path)
            dtype = np.dtype(descr)
            size = math.prod(shape)
            need = size * dtype.itemsize
            # Compared before reading, so a header that declares a huge shape
            # never asks for that much memory; a file with bytes after the
            # payload is not an exact v1.0 volume either.
            held = os.fstat(fh.fileno()).st_size - fh.tell()
            if held != need:
                raise TruncatedError(f"{path}: payload holds {held} bytes, shape {shape} needs {need}")
            data = np.empty(shape)
            flat = data.reshape(-1)
            chunk = min(size, coarse.SLAB_ELEMENTS)
            buf = None if dtype == data.dtype else np.empty(chunk, dtype)
            finite = np.empty(chunk, bool)
            for lo in range(0, size, chunk):
                hi = min(lo + chunk, size)
                slab = flat[lo:hi] if buf is None else buf[: hi - lo]
                # The file can shrink between the size check and the read.
                if fh.readinto(slab) != slab.nbytes:
                    raise TruncatedError(f"{path}: payload ends before the {need} bytes shape {shape} needs")
                ok = finite[: hi - lo]
                np.isfinite(slab, out=ok)
                if not ok.all():
                    raise NonFiniteDataError(f"{path}: payload contains NaN or Inf")
                if buf is not None:
                    flat[lo:hi] = slab
    except OSError as exc:
        raise IoFailureError(f"{path}: {exc}") from exc
    # The header check leaves a positive 3-D shape and every slab is finite.
    return Volume3D._of_checked(data)


def write_npy(volume: Volume3D, path: str | Path, dtype_code: str = "<f8") -> None:
    """Write a version-1.0 .npy file; lossless for '<f8', float32-rounded for '<f4'."""
    if dtype_code not in SUPPORTED_DTYPES:
        raise UnsupportedDtypeError(
            f"dtype {dtype_code!r} not supported (expected one of {SUPPORTED_DTYPES})"
        )
    path = Path(path)
    header_dict = "{'descr': '%s', 'fortran_order': False, 'shape': %s, }" % (
        dtype_code,
        str(tuple(volume.shape)),
    )
    prefix_len = len(MAGIC) + 2 + 2
    total = prefix_len + len(header_dict) + 1  # final newline
    padding = (-total) % _HEADER_ALIGN
    header = header_dict.encode("ascii") + b" " * padding + b"\n"
    # A '<f8' payload is the volume's own C-ordered data, written uncopied.
    with np.errstate(over="ignore"):
        values = volume.data.astype(dtype_code, copy=False)
    # Volume3D values are finite, so only the float32 cast can overflow to Inf.
    if dtype_code == "<f4" and not np.isfinite(values).all():
        raise NonFiniteDataError(f"{path}: values beyond the float32 range cannot be written as '<f4'")
    try:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(b"\x01\x00")
            fh.write(struct.pack("<H", len(header)))
            fh.write(header)
            fh.write(values)
    except OSError as exc:
        raise IoFailureError(f"{path}: {exc}") from exc


def _lines_within(text: str, limit: int) -> bool:
    """Whether no line of ``text`` is longer than ``limit`` characters.

    The last newline within ``limit + 1`` characters of a line's start ends
    every line that starts before it, so each search steps about ``limit``
    characters, not one line.
    """
    start = 0
    while len(text) - start > limit:
        end = text.rfind("\n", start, start + limit + 1)
        if end < 0:
            return False
        start = end + 1
    return True


def _split_columns(body: str, n: int) -> list[list[str]] | None:
    """The ``n`` columns of the rows of ``body``, lines split on commas, or
    ``None`` when some row does not have ``n`` fields."""
    # A "\n" cell parts each row from the next, so every row has n fields
    # exactly when those cells fall every n + 1 places.
    flat = body.replace("\n", ",\n,").split(",")
    breaks = body.count("\n")
    if len(flat) != (n + 1) * (breaks + 1) - 1 or flat[n :: n + 1].count("\n") != breaks:
        return None
    return [flat[i :: n + 1] for i in range(n)]


def _read_csv_columns(path: Path, columns: tuple[str, ...]) -> tuple[str, list[Sequence[str]] | None]:
    """The text of the UTF-8 CSV at ``path``, whose first row must be the
    header ``columns``, and the columns of its non-blank rows after the
    header; ``None`` in place of the columns when some row does not have
    ``len(columns)`` fields."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoFailureError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise NotUtf8Error(f"{path}: byte {exc.start} is not UTF-8 text") from None
    n = len(columns)
    head, _, body = text.partition("\n")
    # Without a quote or a carriage return, csv.reader's rows are the lines
    # split on commas; a line over the field limit, or a NUL that
    # csv.reader refuses before Python 3.11, is left to csv.reader.
    plain = '"' not in text and "\r" not in text and "\0" not in text and _lines_within(text, csv.field_size_limit())
    rows = [head.split(",")] if plain else _csv_rows(path, text)
    if not rows or tuple(cell.strip() for cell in rows[0]) != columns:
        raise MissingColumnError(f"{path}: first row must be the header {','.join(columns)}")
    if plain:
        body = body.strip("\n")
        if not body:
            return text, [()] * n
        cols = _split_columns(body, n)
        # A blank line is one empty field, never n of them, so only a body
        # with blank lines between its rows is split again without them.
        if cols is None and "\n\n" in body:
            cols = _split_columns("\n".join(filter(None, body.split("\n"))), n)
        return text, cols
    records = [row for row in rows[1:] if row]
    if set(map(len, records)) - {n}:
        return text, None
    return text, list(zip(*records)) or [()] * n


def _csv_rows(path: Path, text: str) -> list[list[str]]:
    """Every row ``csv.reader`` reads from ``text``, a blank line as ``[]``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return list(reader)
    except csv.Error as exc:
        raise MalformedRowError(f"{path}: line {reader.line_num}: {exc}") from None


def _csv_body(path: Path, text: str, n: int) -> Iterator[tuple[int, list[str]]]:
    """The line of the file that each non-blank row after the header starts
    on, and the row's stripped cells; a row without ``n`` fields raises."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)  # the header, already checked
    start = reader.line_num + 1
    for row in reader:
        line_no, start = start, reader.line_num + 1
        if not row:
            continue
        if len(row) != n:
            raise MalformedRowError(f"{path}: line {line_no}: expected {n} fields, got {len(row)}")
        yield line_no, [cell.strip() for cell in row]


MANIFEST_COLUMNS = ("subject_id", "volume_path", "age_years")


def read_manifest(path: str | Path) -> tuple[ManifestEntry, ...]:
    """Parse a cohort manifest CSV into one ``ManifestEntry`` per row."""
    return tuple(map(tuple.__new__, repeat(ManifestEntry), zip(*read_manifest_columns(path))))


def read_manifest_columns(path: str | Path) -> tuple[list[str], list[str], list[float]]:
    """The subject-id, volume-path and age columns of a cohort manifest CSV.

    Every row needs 3 fields, a non-empty subject id and volume path, a
    subject id not seen before and an age that parses as a finite number
    > 0. The columns are converted whole; only when a check fails does a
    row-by-row pass run, to name the offending line.
    """
    path = Path(path)
    text, cols = _read_csv_columns(path, MANIFEST_COLUMNS)
    if cols is None:
        _raise_first_bad_manifest_row(path, text)
    sid_col, path_col, age_col = cols
    sids, volume_paths = list(map(str.strip, sid_col)), list(map(str.strip, path_col))
    try:
        ages = list(map(float, age_col))
    except ValueError:
        _raise_first_bad_manifest_row(path, text)
    if (
        not all(sids)
        or not all(volume_paths)
        or len(set(sids)) != len(sids)
        or not all(map((0.0).__lt__, ages))
        or math.inf in ages
    ):
        _raise_first_bad_manifest_row(path, text)
    return sids, volume_paths, ages


def _raise_first_bad_manifest_row(path: Path, text: str) -> NoReturn:
    """Check the body of a manifest row by row and raise at the first bad line."""
    seen: dict[str, int] = {}
    for line_no, (subject_id, volume_path, age_text) in _csv_body(path, text, 3):
        if not subject_id or not volume_path:
            raise MalformedRowError(f"{path}: line {line_no}: empty subject_id or volume_path")
        if subject_id in seen:
            raise DuplicateSubjectError(
                f"{path}: line {line_no}: subject_id {subject_id!r} already seen on line {seen[subject_id]}"
            )
        try:
            age = float(age_text)
        except ValueError as exc:
            raise MalformedRowError(f"{path}: line {line_no}: age_years {age_text!r} is not a number") from exc
        if not age > 0:
            raise NonPositiveAgeError(f"{path}: line {line_no}: age_years must be > 0, got {age_text}")
        if age == math.inf:
            raise MalformedRowError(f"{path}: line {line_no}: age_years {age_text!r} is not a finite number")
        seen[subject_id] = line_no
    raise MalformedRowError(f"{path}: malformed rows")


BATCH_COLUMNS = ("subject_id", "scale_index", "scale_factor", "complexity")


@dataclass(frozen=True, eq=False)
class BatchTable:
    """A batch CSV as a subject x scale complexity matrix.

    Rows follow the first appearance of each subject in the file, columns
    the sorted scale indices. A cell is NaN where the subject has no row at
    that scale.
    """

    subject_ids: tuple[str, ...]
    scale_indices: tuple[int, ...]
    scale_factors: tuple[int, ...]
    complexity: np.ndarray


def read_batch_csv(path: str | Path) -> BatchTable:
    """Parse a batch CSV in one columnar pass.

    Every row needs 4 fields, an integer scale index and factor and a finite
    complexity >= 0. A ``(subject_id, scale_index)`` pair may appear only once,
    and a scale index only ever with one factor. The columns are converted
    whole; only when a check fails does a row-by-row pass run, to name the
    offending line.
    """
    path = Path(path)
    text, cols = _read_csv_columns(path, BATCH_COLUMNS)
    if cols is None:
        _raise_first_bad_row(path, text)
    c_col = cols[3]
    if not c_col:
        return BatchTable((), (), (), np.empty((0, 0)))
    try:
        cs = np.fromiter(map(float, c_col), np.float64, len(c_col))
    except ValueError:
        _raise_first_bad_row(path, text)
    if not np.isfinite(cs).all() or (cs < 0.0).any():
        _raise_first_bad_row(path, text)
    return _regular_table(cols, cs) or _table_of_rows(path, text, cols, cs)


def _regular_table(cols: list[Sequence[str]], cs: np.ndarray) -> BatchTable | None:
    """The table of a batch CSV in the layout ``batch`` writes (see the
    module docstring), or ``None`` for a file in any other layout."""
    sid_col, k_col, factor_col, _ = cols
    rows = len(k_col)
    try:
        size = k_col.index(k_col[0], 1)
    except ValueError:
        size = rows
    heads = sid_col[::size]
    if (
        rows % size
        or k_col[size:] != k_col[:-size]
        or factor_col[size:] != factor_col[:-size]
        or not all(sid_col[j::size] == heads for j in range(1, size))
    ):
        return None
    sids = tuple(map(str.strip, heads))
    try:
        indices, factors = list(map(int, k_col[:size])), list(map(int, factor_col[:size]))
    except ValueError:
        return None
    if len(set(sids)) != len(sids) or len(set(indices)) != size:
        return None
    order = sorted(range(size), key=indices.__getitem__)
    return BatchTable(
        subject_ids=sids,
        scale_indices=tuple(indices[j] for j in order),
        scale_factors=tuple(factors[j] for j in order),
        complexity=cs.reshape(len(sids), size)[:, order],
    )


def _table_of_rows(path: Path, text: str, cols: list[Sequence[str]], cs: np.ndarray) -> BatchTable:
    """The table of a batch CSV in any row order, each row placed by its
    subject and scale; a repeated cell or a scale with two factors raises."""
    sid_col, k_col, factor_col, _ = cols
    try:
        # A few distinct (index, factor) texts repeat on every subject, so
        # each is parsed, and the index-to-factor rule checked, once.
        pairs = {texts: (int(texts[0]), int(texts[1])) for texts in set(zip(k_col, factor_col))}
    except ValueError:
        _raise_first_bad_row(path, text)
    factor_of = dict(pairs.values())
    indices = sorted(factor_of)
    col_of = {k: j for j, k in enumerate(indices)}
    col_of_text = {k_text: col_of[k] for (k_text, _), (k, _) in pairs.items()}
    sids = list(map(str.strip, sid_col))
    row_of = dict(zip(dict.fromkeys(sids), count()))
    cells = np.fromiter(map(row_of.__getitem__, sids), np.intp, len(sids)) * len(indices)
    cells += np.fromiter(map(col_of_text.__getitem__, k_col), np.intp, len(k_col))
    if len(set(pairs.values())) != len(factor_of) or np.bincount(cells).max() > 1:
        _raise_first_bad_row(path, text)
    complexity = np.full(len(row_of) * len(indices), np.nan)
    complexity[cells] = cs
    return BatchTable(
        subject_ids=tuple(row_of),
        scale_indices=tuple(indices),
        scale_factors=tuple(factor_of[k] for k in indices),
        complexity=complexity.reshape(len(row_of), len(indices)),
    )


def _raise_first_bad_row(path: Path, text: str) -> NoReturn:
    """Check the body of a batch CSV row by row and raise at the first bad line."""
    line_of_cell: dict[tuple[str, int], int] = {}
    first_factor: dict[int, tuple[int, int]] = {}
    for line_no, (sid, k_text, factor_text, c_text) in _csv_body(path, text, 4):
        try:
            k, factor, c = int(k_text), int(factor_text), float(c_text)
        except ValueError as exc:
            raise MalformedRowError(f"{path}: line {line_no}: {exc}") from exc
        if not math.isfinite(c):
            raise MalformedRowError(f"{path}: line {line_no}: complexity {c_text!r} is not finite")
        if c < 0.0:
            raise MalformedRowError(f"{path}: line {line_no}: complexity {c_text!r} is negative")
        if (sid, k) in line_of_cell:
            raise MalformedRowError(
                f"{path}: line {line_no}: subject {sid!r} at scale {k} already given on line {line_of_cell[sid, k]}"
            )
        seen_factor, seen_line = first_factor.setdefault(k, (factor, line_no))
        if factor != seen_factor:
            raise MalformedRowError(
                f"{path}: line {line_no}: scale {k} has factor {factor}, but factor {seen_factor} on line {seen_line}"
            )
        line_of_cell[sid, k] = line_no
    raise MalformedRowError(f"{path}: malformed rows")
