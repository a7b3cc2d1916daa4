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
Written headers are padded so magic+version+length+dict total a multiple
of 64 bytes. The parser is deliberately independent of ``numpy.load`` so
that malformed files map to a stable, fine-grained error taxonomy.

Manifest CSV: UTF-8 with header ``subject_id,volume_path,age_years``.
Batch CSV: UTF-8 with header ``subject_id,scale_index,scale_factor,complexity``,
one row per subject and scale, as ``msc3d batch`` writes it.
"""

from __future__ import annotations

import ast
import csv
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, NoReturn

import numpy as np

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


@dataclass(frozen=True)
class NpyHeader:
    dtype_code: str
    shape: tuple[int, int, int]


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


class ManifestEntry(NamedTuple):
    """One manifest row."""

    subject_id: str
    volume_path: str
    age_years: float


def _parse_header_dict(raw: bytes, path: Path) -> NpyHeader:
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
    if not isinstance(shape, tuple) or not all(isinstance(d, int) for d in shape):
        raise HeaderMalformedError(f"{path}: shape must be a tuple of ints")
    if len(shape) != 3 or min(shape) < 1:
        raise BadShapeError(f"{path}: expected a positive 3-D shape, got {shape}")
    return NpyHeader(dtype_code=descr, shape=shape)  # type: ignore[arg-type]


def _read_header_from(fh, path: Path) -> NpyHeader:
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
    """Read a 3-D little-endian float volume; values are widened to float64."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            header = _read_header_from(fh, path)
            itemsize = 4 if header.dtype_code == "<f4" else 8
            need = header.shape[0] * header.shape[1] * header.shape[2] * itemsize
            # Compared before reading, so a header that declares a huge shape
            # never asks for that much memory; a file with bytes after the
            # payload is not an exact v1.0 volume either.
            held = os.fstat(fh.fileno()).st_size - fh.tell()
            if held != need:
                raise TruncatedError(f"{path}: payload holds {held} bytes, shape {header.shape} needs {need}")
            values = np.fromfile(fh, np.dtype(header.dtype_code), need // itemsize)
    except OSError as exc:
        raise IoFailureError(f"{path}: {exc}") from exc
    # The header check leaves a positive 3-D shape, so Volume3D, which widens
    # the payload to float64 and checks every voxel once, can only refuse it
    # for a NaN or Inf.
    try:
        return Volume3D(values.reshape(header.shape))
    except ValueError as exc:
        raise NonFiniteDataError(f"{path}: payload contains NaN or Inf") from exc


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
    with np.errstate(over="ignore"):
        values = volume.data.astype(np.dtype(dtype_code))
    # Volume3D values are finite, so only the float32 cast can overflow to Inf.
    if dtype_code == "<f4" and not np.isfinite(values).all():
        raise NonFiniteDataError(f"{path}: values beyond the float32 range cannot be written as '<f4'")
    payload = values.tobytes(order="C")
    try:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(b"\x01\x00")
            fh.write(struct.pack("<H", len(header)))
            fh.write(header)
            fh.write(payload)
    except OSError as exc:
        raise IoFailureError(f"{path}: {exc}") from exc


def _read_csv_records(path: Path, columns: tuple[str, ...]) -> tuple[list[list[str]], list[list[str]]]:
    """All rows of the UTF-8 CSV at ``path``, whose first row must be the
    header ``columns``, and its non-blank rows after the header."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IoFailureError(f"{path}: {exc}") from exc
    if not rows or tuple(cell.strip() for cell in rows[0]) != columns:
        raise MissingColumnError(f"{path}: first row must be the header {','.join(columns)}")
    return rows, [row for row in rows[1:] if row]


MANIFEST_COLUMNS = ("subject_id", "volume_path", "age_years")


def read_manifest(path: str | Path) -> tuple[ManifestEntry, ...]:
    """Parse a cohort manifest CSV in one columnar pass.

    Every row needs 3 fields, a non-empty subject id and volume path, a
    subject id not seen before and an age that parses as a finite number
    > 0. The columns are converted whole; only when a check fails does a
    row-by-row pass run, to name the offending line.
    """
    path = Path(path)
    rows, records = _read_csv_records(path, MANIFEST_COLUMNS)
    if set(map(len, records)) - {3}:
        _raise_first_bad_manifest_row(path, rows)
    sid_col, path_col, age_col = zip(*records) if records else ((), (), ())
    sids, volume_paths = list(map(str.strip, sid_col)), list(map(str.strip, path_col))
    try:
        ages = list(map(float, age_col))
    except ValueError:
        _raise_first_bad_manifest_row(path, rows)
    if (
        not all(sids)
        or not all(volume_paths)
        or len(set(sids)) != len(sids)
        or not all(map((0.0).__lt__, ages))
        or math.inf in ages
    ):
        _raise_first_bad_manifest_row(path, rows)
    return tuple(map(ManifestEntry._make, zip(sids, volume_paths, ages)))


def _raise_first_bad_manifest_row(path: Path, rows: list[list[str]]) -> NoReturn:
    """Check the body of a manifest row by row and raise at the first bad line."""
    seen: dict[str, int] = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise MalformedRowError(f"{path}: line {line_no}: expected 3 fields, got {len(row)}")
        subject_id, volume_path, age_text = row[0].strip(), row[1].strip(), row[2].strip()
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
    complexity. A ``(subject_id, scale_index)`` pair may appear only once,
    and a scale index only ever with one factor. The columns are converted
    whole; only when a check fails does a row-by-row pass run, to name the
    offending line.
    """
    path = Path(path)
    rows, records = _read_csv_records(path, BATCH_COLUMNS)
    if not records:
        return BatchTable((), (), (), np.empty((0, 0)))
    if set(map(len, records)) != {4}:
        _raise_first_bad_row(path, rows)
    sid_col, k_col, factor_col, c_col = ([row[i] for row in records] for i in range(4))
    try:
        ks = list(map(int, k_col))
        factors = list(map(int, factor_col))
        cs = np.fromiter(map(float, c_col), np.float64, len(records))
    except ValueError:
        _raise_first_bad_row(path, rows)
    sids = list(map(str.strip, sid_col))
    row_of = {sid: i for i, sid in enumerate(dict.fromkeys(sids))}
    factor_of = dict(zip(ks, factors))
    indices = sorted(factor_of)
    col_of = {k: j for j, k in enumerate(indices)}
    cells = np.fromiter(map(row_of.__getitem__, sids), np.intp, len(sids)) * len(indices)
    cells += np.fromiter(map(col_of.__getitem__, ks), np.intp, len(ks))
    if (
        len(set(zip(ks, factors))) != len(factor_of)
        or np.bincount(cells).max() > 1
        or not np.isfinite(cs).all()
    ):
        _raise_first_bad_row(path, rows)
    complexity = np.full(len(row_of) * len(indices), np.nan)
    complexity[cells] = cs
    return BatchTable(
        subject_ids=tuple(row_of),
        scale_indices=tuple(indices),
        scale_factors=tuple(factor_of[k] for k in indices),
        complexity=complexity.reshape(len(row_of), len(indices)),
    )


def _raise_first_bad_row(path: Path, rows: list[list[str]]) -> NoReturn:
    """Check the body of a batch CSV row by row and raise at the first bad line."""
    line_of_cell: dict[tuple[str, int], int] = {}
    first_factor: dict[int, tuple[int, int]] = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise MalformedRowError(f"{path}: line {line_no}: expected 4 fields, got {len(row)}")
        sid, k_text, factor_text, c_text = (cell.strip() for cell in row)
        try:
            k, factor, c = int(k_text), int(factor_text), float(c_text)
        except ValueError as exc:
            raise MalformedRowError(f"{path}: line {line_no}: {exc}") from exc
        if not math.isfinite(c):
            raise MalformedRowError(f"{path}: line {line_no}: complexity {c_text!r} is not finite")
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
