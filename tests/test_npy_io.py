from __future__ import annotations

import csv
import io
import math
import struct
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msc3d import Volume3D, coarse, npy_io, read_manifest, read_npy, write_npy
from msc3d.npy_io import (
    BadShapeError,
    DuplicateSubjectError,
    HeaderMalformedError,
    IoFailureError,
    MagicMismatchError,
    MalformedRowError,
    ManifestError,
    MissingColumnError,
    NonFiniteDataError,
    NonPositiveAgeError,
    NotUtf8Error,
    TruncatedError,
    UnsupportedDtypeError,
    UnsupportedLayoutError,
    UnsupportedVersionError,
    read_batch_csv,
)

from . import oracles
from .conftest import traced_peak


def make_npy_bytes(descr="<f8", fortran=False, shape=(2, 2, 2), payload=None, version=b"\x01\x00"):
    header = f"{{'descr': '{descr}', 'fortran_order': {fortran}, 'shape': {shape}, }}"
    raw = header.encode() + b"\n"
    if payload is None:
        count = int(np.prod(shape))
        payload = np.zeros(count, dtype=descr if descr.startswith("<f") else "<f8").tobytes()
    return b"\x93NUMPY" + version + struct.pack("<H", len(raw)) + raw + payload


def npy_with_header(raw, payload=b""):
    """A v1.0 file whose header dict is the bytes ``raw``."""
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(raw)) + raw + payload


# Files whose header is cut short or malformed, and the message that ends the
# HeaderMalformedError each raises.
MALFORMED_HEADERS = {
    "cut_in_version": (b"\x93NUMPY\x01", "file ends inside the version field"),
    "cut_in_header_length": (b"\x93NUMPY\x01\x00\x46", "file ends inside the header-length field"),
    "cut_in_header_dict": (make_npy_bytes()[:40], "file ends inside the header dict"),
    "not_ascii": (
        npy_with_header("{'descr': '<f8', 'fortran_order': False, 'shape': (2, 2, 2), 'é': 1}\n".encode()),
        "header is not ASCII",
    ),
    "no_fortran_order": (
        npy_with_header(b"{'descr': '<f8', 'shape': (2, 2, 2), }\n", bytes(64)),
        "header dict must have exactly descr/fortran_order/shape",
    ),
    "integer_fortran_order": (make_npy_bytes(fortran=0), "fortran_order must be a boolean"),
}


class TestReadNpy:
    def test_zero_volume_roundtrip_through_raw_bytes(self, tmp_path):
        path = tmp_path / "zeros.npy"
        path.write_bytes(make_npy_bytes(descr="<f4", shape=(2, 2, 2)))
        vol = read_npy(path)
        assert vol.shape == (2, 2, 2)
        assert np.all(vol.data == 0.0)
        assert vol.data.dtype == np.float64

    def test_128_cubed_header(self, tmp_path):
        # full 128^3 payload: 2,097,152 voxels
        path = tmp_path / "big.npy"
        data = np.zeros((128, 128, 128), dtype="<f4")
        path.write_bytes(make_npy_bytes(descr="<f4", shape=(128, 128, 128), payload=data.tobytes()))
        vol = read_npy(path)
        assert vol.data.size == 2_097_152

    def test_magic_mismatch(self, tmp_path):
        path = tmp_path / "bad.npy"
        path.write_bytes(b"not a numpy file at all")
        with pytest.raises(MagicMismatchError):
            read_npy(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v2.npy"
        path.write_bytes(make_npy_bytes(version=b"\x02\x00"))
        with pytest.raises(UnsupportedVersionError):
            read_npy(path)

    @pytest.mark.parametrize("descr", [">f8", "<i4", "<f2", "|b1"])
    def test_unsupported_dtype(self, tmp_path, descr):
        path = tmp_path / "dtype.npy"
        path.write_bytes(make_npy_bytes(descr=descr))
        with pytest.raises(UnsupportedDtypeError):
            read_npy(path)

    def test_fortran_order_rejected(self, tmp_path):
        path = tmp_path / "fortran.npy"
        path.write_bytes(make_npy_bytes(fortran=True))
        with pytest.raises(UnsupportedLayoutError):
            read_npy(path)

    @pytest.mark.parametrize("shape", [(4,), (2, 2), (2, 2, 2, 2), (0, 2, 2)])
    def test_bad_shape(self, tmp_path, shape):
        path = tmp_path / "shape.npy"
        path.write_bytes(make_npy_bytes(shape=shape, payload=b""))
        with pytest.raises(BadShapeError):
            read_npy(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.npy"
        full = make_npy_bytes(descr="<f8", shape=(3, 3, 3))
        path.write_bytes(full[:-8])
        with pytest.raises(TruncatedError):
            read_npy(path)

    def test_file_cut_after_the_size_check(self, tmp_path, monkeypatch):
        # The size check sees the declared payload, but the file is 8 bytes
        # short by the time the payload is read.
        path = tmp_path / "shrunk.npy"
        full = make_npy_bytes(descr="<f8", shape=(3, 3, 3))
        path.write_bytes(full[:-8])
        monkeypatch.setattr(npy_io.os, "fstat", lambda fd: SimpleNamespace(st_size=len(full)))
        message = r"shrunk.npy: payload ends before the 216 bytes shape \(3, 3, 3\) needs$"
        with pytest.raises(TruncatedError, match=message):
            read_npy(path)

    def test_huge_declared_shape_is_truncated_before_reading(self, tmp_path):
        # the header declares 8e15 bytes and the file holds 64: comparing the
        # two before reading keeps the payload read from asking for 8e15
        path = tmp_path / "huge.npy"
        path.write_bytes(make_npy_bytes(shape=(100000, 100000, 100000), payload=bytes(64)))
        message = r"huge.npy: payload holds 64 bytes, shape \(100000, 100000, 100000\) needs 8000000000000000$"
        with pytest.raises(TruncatedError, match=message):
            read_npy(path)

    def test_bytes_after_payload_rejected(self, tmp_path):
        # 22 bytes appended to an exact 2x2x2 float64 file: 86 held, 64 needed
        path = tmp_path / "long.npy"
        write_npy(Volume3D(np.arange(8.0).reshape(2, 2, 2)), path, "<f8")
        path.write_bytes(path.read_bytes() + bytes(22))
        message = r"long.npy: payload holds 86 bytes, shape \(2, 2, 2\) needs 64$"
        with pytest.raises(TruncatedError, match=message):
            read_npy(path)

    def test_nan_payload_rejected(self, tmp_path):
        path = tmp_path / "nan.npy"
        payload = np.full(8, np.nan, dtype="<f8").tobytes()
        path.write_bytes(make_npy_bytes(shape=(2, 2, 2), payload=payload))
        with pytest.raises(NonFiniteDataError):
            read_npy(path)

    def test_inf_payload_named_in_message(self, tmp_path):
        path = tmp_path / "inf.npy"
        payload = np.array([0, 1, 2, np.inf, 4, 5, 6, 7], dtype="<f4").tobytes()
        path.write_bytes(make_npy_bytes(descr="<f4", shape=(2, 2, 2), payload=payload))
        with pytest.raises(NonFiniteDataError, match="inf.npy: payload contains NaN or Inf"):
            read_npy(path)

    @pytest.mark.parametrize("shape", [(True, 2, 2), (2, 2, False)], ids=str)
    def test_bool_dim_rejected(self, tmp_path, shape):
        # bool is an int subclass, so True passed as a dimension of 1
        path = tmp_path / "bool.npy"
        path.write_bytes(make_npy_bytes(shape=shape, payload=bytes(32)))
        with pytest.raises(HeaderMalformedError, match=r"bool.npy: shape must be a tuple of ints$"):
            read_npy(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_malformed_header_named(self, tmp_path, case):
        blob, message = MALFORMED_HEADERS[case]
        path = tmp_path / "bad.npy"
        path.write_bytes(blob)
        with pytest.raises(HeaderMalformedError) as raised:
            read_npy(path)
        assert str(raised.value) == f"{path}: {message}"

    def test_header_garbage(self, tmp_path):
        path = tmp_path / "garbage.npy"
        raw = b"{'descr': '<f8', 'fortran_order'"
        path.write_bytes(b"\x93NUMPY\x01\x00" + struct.pack("<H", len(raw)) + raw)
        with pytest.raises(HeaderMalformedError):
            read_npy(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailureError):
            read_npy(tmp_path / "nope.npy")

    def test_same_bytes_same_error(self, tmp_path):
        # determinism of the error taxonomy
        blob = make_npy_bytes(version=b"\x03\x00")
        errs = []
        for name in ("a.npy", "b.npy"):
            path = tmp_path / name
            path.write_bytes(blob)
            with pytest.raises(UnsupportedVersionError) as ei:
                read_npy(path)
            errs.append(type(ei.value))
        assert errs[0] is errs[1]


class TestSlabbedRead:
    """``read_npy`` reads and checks the payload one slab of
    ``coarse.SLAB_ELEMENTS`` values at a time."""

    # 36,000 values: one whole slab of 32,768 and a part slab
    SHAPE = (5, 80, 90)

    @pytest.mark.parametrize("descr", ["<f4", "<f8"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["first", "slab_end", "slab_start", "last"])
    def test_non_finite_value_anywhere_rejected(self, tmp_path, descr, value, where):
        size = math.prod(self.SHAPE)
        index = {"first": 0, "slab_end": coarse.SLAB_ELEMENTS - 1, "slab_start": coarse.SLAB_ELEMENTS, "last": size - 1}
        payload = np.ones(size, dtype=descr)
        payload[index[where]] = value
        path = tmp_path / "bad.npy"
        path.write_bytes(make_npy_bytes(descr=descr, shape=self.SHAPE, payload=payload.tobytes()))
        with pytest.raises(NonFiniteDataError) as excinfo:
            read_npy(path)
        assert str(excinfo.value) == f"{path}: payload contains NaN or Inf"

    @pytest.mark.parametrize("descr", ["<f4", "<f8"])
    @pytest.mark.parametrize("shape, slab", [(SHAPE, None), ((3, 7, 11), 10), ((1, 1, 1), None)], ids=str)
    def test_values_equal_numpy_load_to_the_bit(self, tmp_path, rng, monkeypatch, descr, shape, slab):
        if slab:
            monkeypatch.setattr(coarse, "SLAB_ELEMENTS", slab)
        finfo = np.finfo(descr)
        values = (rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, size=shape)).astype(descr)
        values.flat[:4] = [-0.0, finfo.smallest_subnormal, finfo.max, -finfo.max][: values.size]
        path = tmp_path / "v.npy"
        np.save(path, values)
        got = read_npy(path).data
        want = np.load(path).astype(np.float64)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("descr", ["<f4", "<f8"])
    def test_data_is_read_only_c_contiguous_float64(self, tmp_path, descr):
        path = tmp_path / "v.npy"
        np.save(path, np.ones(self.SHAPE, dtype=descr))
        data = read_npy(path).data
        assert data.dtype == np.float64
        assert data.flags.c_contiguous
        assert not data.flags.writeable
        with pytest.raises(ValueError):
            data[0, 0, 0] = 2.0

    @pytest.mark.parametrize("descr", ["<f4", "<f8"])
    def test_each_read_is_a_fresh_array(self, tmp_path, descr):
        path = tmp_path / "v.npy"
        np.save(path, np.ones(self.SHAPE, dtype=descr))
        first, second = read_npy(path).data, read_npy(path).data
        assert first.flags.owndata and second.flags.owndata
        assert not np.shares_memory(first, second)
        assert not first.flags.writeable and not second.flags.writeable

    @pytest.mark.parametrize("descr", ["<f4", "<f8"])
    def test_peak_memory_is_the_volume_and_one_slab(self, tmp_path, descr):
        path = tmp_path / "v.npy"
        np.save(path, np.ones((40, 40, 41), dtype=descr))
        vol, peak = traced_peak(lambda: read_npy(path))
        assert peak <= vol.data.nbytes + coarse.SLAB_ELEMENTS * 8


class TestWriteNpy:
    def test_header_is_64_byte_aligned(self, tmp_path):
        path = tmp_path / "aligned.npy"
        write_npy(Volume3D(np.zeros((3, 3, 3))), path, "<f8")
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<H", blob[8:10])
        total = 10 + hlen
        assert total % 64 == 0
        assert blob[total - 1:total] == b"\n"
        # 27 voxels at 8 bytes each after the header
        assert len(blob) == total + 27 * 8

    def test_roundtrip_f8_exact(self, tmp_path, rng):
        values = np.array([i / 1000.0 for i in range(27)]).reshape(3, 3, 3)
        path = tmp_path / "rt.npy"
        write_npy(Volume3D(values), path, "<f8")
        back = read_npy(path)
        assert np.array_equal(back.data, values)

    def test_roundtrip_f4_within_float32_rounding(self, tmp_path, rng):
        values = rng.random((4, 5, 6))
        path = tmp_path / "rt4.npy"
        write_npy(Volume3D(values), path, "<f4")
        back = read_npy(path)
        assert np.allclose(back.data, values, rtol=1e-6, atol=0)

    def test_numpy_can_read_our_files(self, tmp_path, rng):
        values = rng.random((3, 4, 5))
        path = tmp_path / "interop.npy"
        write_npy(Volume3D(values), path, "<f8")
        assert np.array_equal(np.load(path), values)

    def test_we_can_read_numpy_files(self, tmp_path, rng):
        values = rng.random((5, 4, 3)).astype(np.float32)
        path = tmp_path / "fromnp.npy"
        np.save(path, values)
        back = read_npy(path)
        assert np.array_equal(back.data, values.astype(np.float64))

    def test_bad_dtype_code(self, tmp_path):
        with pytest.raises(UnsupportedDtypeError):
            write_npy(Volume3D(np.zeros((2, 2, 2))), tmp_path / "x.npy", "<i8")

    @pytest.mark.parametrize("value", [1e39, -3.5e38])
    def test_f4_overflow_rejected_before_writing(self, tmp_path, value):
        values = np.zeros((2, 3, 4))
        values[1, 2, 3] = value
        path = tmp_path / "big.npy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteDataError, match="float32 range") as excinfo:
                write_npy(Volume3D(values), path, "<f4")
        assert str(excinfo.value).startswith(f"{path}: ")
        assert not path.exists()

    def test_f4_largest_finite_value_written(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        path = tmp_path / "top.npy"
        write_npy(Volume3D(np.full((2, 2, 2), top)), path, "<f4")
        assert read_npy(path).data.max() == top
        write_npy(Volume3D(np.full((2, 2, 2), 1e39)), path, "<f8")
        assert read_npy(path).data.max() == 1e39


def write_manifest(tmp_path, text):
    path = tmp_path / "manifest.csv"
    path.write_text(text)
    return path


class TestManifest:
    def test_single_row(self, tmp_path):
        path = write_manifest(tmp_path, "subject_id,volume_path,age_years\ns1,/data/s1.npy,60.0\n")
        manifest = read_manifest(path)
        assert len(manifest) == 1
        entry = manifest[0]
        assert (entry.subject_id, entry.volume_path, entry.age_years) == ("s1", "/data/s1.npy", 60.0)

    def test_duplicate_subject_names_line(self, tmp_path):
        rows = ["subject_id,volume_path,age_years"]
        rows += [f"s{i},/d/{i}.npy,50" for i in (1, 2, 3)]
        rows.append("s1,/d/dup.npy,51")  # line 5
        path = write_manifest(tmp_path, "\n".join(rows) + "\n")
        with pytest.raises(DuplicateSubjectError, match="line 5"):
            read_manifest(path)

    def test_zero_age(self, tmp_path):
        path = write_manifest(tmp_path, "subject_id,volume_path,age_years\ns1,/d/1.npy,0\n")
        with pytest.raises(NonPositiveAgeError):
            read_manifest(path)

    def test_missing_header(self, tmp_path):
        path = write_manifest(tmp_path, "id,path,age\ns1,/d/1.npy,60\n")
        with pytest.raises(MissingColumnError):
            read_manifest(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = write_manifest(tmp_path, "subject_id,volume_path,age_years\ns1,/d/1.npy,60\ns2,/d/2.npy\n")
        with pytest.raises(MalformedRowError, match="line 3"):
            read_manifest(path)

    def test_non_numeric_age(self, tmp_path):
        path = write_manifest(tmp_path, "subject_id,volume_path,age_years\ns1,/d/1.npy,old\n")
        with pytest.raises(MalformedRowError):
            read_manifest(path)

    def test_entries_in_file_order(self, tmp_path):
        rows = "subject_id,volume_path,age_years\n" + "".join(
            f"s{i},/d/{i}.npy,{40 + i}\n" for i in range(5)
        )
        manifest = read_manifest(write_manifest(tmp_path, rows))
        assert [e.subject_id for e in manifest] == [f"s{i}" for i in range(5)]

    def test_blank_lines_skipped_and_cells_stripped(self, tmp_path):
        text = "subject_id,volume_path,age_years\n\n s1 , /d/1.npy ,60.5\n\ns2,/d/2.npy, 7e1 \n"
        manifest = read_manifest(write_manifest(tmp_path, text))
        rows = [(e.subject_id, e.volume_path, e.age_years) for e in manifest]
        assert rows == [("s1", "/d/1.npy", 60.5), ("s2", "/d/2.npy", 70.0)]

    @pytest.mark.parametrize(
        "body, error, message",
        [
            ("s1,/d/1.npy,60\ns2,/d/2.npy,0\ns1,/d/3.npy,50\n", NonPositiveAgeError, "line 3: age_years must be > 0"),
            ("s1,/d/1.npy,60\ns1,/d/2.npy,old\ns3,/d/3.npy\n", DuplicateSubjectError, "line 3: .* already seen on line 2"),
            ("s1,/d/1.npy,60\n\n,/d/2.npy,61\ns3,/d/3.npy,-1\n", MalformedRowError, "line 4: empty subject_id"),
            ("s1,,60\ns2,/d/2.npy,62\n", MalformedRowError, "line 2: empty subject_id or volume_path"),
            ("s1,/d/1.npy,nan\n", NonPositiveAgeError, "line 2: age_years must be > 0, got nan"),
            ("s1,/d/1.npy,60\ns2,/d/2.npy,inf\n", MalformedRowError, "line 3: age_years 'inf' is not a finite number"),
            ("s1,/d/1.npy,6O\ns2,/d/2.npy,0\n", MalformedRowError, "line 2: age_years '6O' is not a number"),
            ("s1,/d/1.npy,60\ns2,/d/2.npy,61,x\n", MalformedRowError, "line 3: expected 3 fields, got 4"),
        ],
        ids=[
            "age_before_duplicate",
            "duplicate_before_age",
            "empty_id",
            "empty_path",
            "nan_age",
            "inf_age",
            "bad_age",
            "four_fields",
        ],
    )
    def test_first_bad_line_is_named(self, tmp_path, body, error, message):
        path = write_manifest(tmp_path, "subject_id,volume_path,age_years\n" + body)
        with pytest.raises(error, match=message):
            read_manifest(path)



BATCH_HEADER = "subject_id,scale_index,scale_factor,complexity\n"


def write_batch(tmp_path, body):
    path = tmp_path / "cohort.csv"
    path.write_text(BATCH_HEADER + body)
    return path


REGULAR_ROWS = [f"s{i},{k},{2**k},{(i + 1) * 0.5 + k}" for i in range(4) for k in range(3)]


def general_path_calls(monkeypatch):
    """A list that records each call of the general batch-table path."""
    calls = []
    general = npy_io._table_of_rows

    def recorded(*args):
        calls.append(args[0])
        return general(*args)

    monkeypatch.setattr(npy_io, "_table_of_rows", recorded)
    return calls


class TestBatchCsv:
    def test_subject_by_scale_matrix(self, tmp_path):
        body = "b,1,2,0.5\na,0,1,3.0\nb,0,1,2.0\na,1,2,0.25\n"
        table = read_batch_csv(write_batch(tmp_path, body))
        assert table.subject_ids == ("b", "a")  # first-seen order
        assert table.scale_indices == (0, 1)
        assert table.scale_factors == (1, 2)
        assert table.complexity.dtype == np.float64
        assert table.complexity.tolist() == [[2.0, 0.5], [3.0, 0.25]]

    def test_missing_cells_are_nan_and_scales_sorted(self, tmp_path):
        body = "a,2,4,1.0\na,0,1,2.0\nb,0,1,0.0\n"
        table = read_batch_csv(write_batch(tmp_path, body))
        assert table.scale_indices == (0, 2)
        assert table.scale_factors == (1, 4)
        assert table.complexity[0].tolist() == [2.0, 1.0]
        assert table.complexity[1, 0] == 0.0
        assert np.isnan(table.complexity[1, 1])

    def test_cells_are_stripped_and_blank_lines_skipped(self, tmp_path):
        table = read_batch_csv(write_batch(tmp_path, "\n a , 0 , 1 , 2.5 \n\n"))
        assert table.subject_ids == ("a",)
        assert table.complexity.tolist() == [[2.5]]

    def test_header_only(self, tmp_path):
        table = read_batch_csv(write_batch(tmp_path, ""))
        assert table.subject_ids == () and table.scale_indices == ()
        assert table.complexity.size == 0

    def test_missing_header(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text("a,0,1,2.0\n")
        with pytest.raises(MissingColumnError):
            read_batch_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailureError):
            read_batch_csv(tmp_path / "absent.csv")

    @pytest.mark.parametrize(
        "bad, match",
        [
            ("b,0,1\n", "expected 4 fields, got 3"),
            ("b,0,1,2.0,9\n", "expected 4 fields, got 5"),
            ("b,zero,1,2.0\n", "invalid literal"),
            ("b,0,1.5,2.0\n", "invalid literal"),
            ("b,0,1,much\n", "could not convert"),
            ("b,0,1,nan\n", "complexity 'nan' is not finite"),
            ("b,0,1,inf\n", "complexity 'inf' is not finite"),
            ("b,0,1,-0.25\n", "complexity '-0.25' is negative"),
        ],
    )
    def test_malformed_row_names_line(self, tmp_path, bad, match):
        # line 1 header, line 2 good, line 3 blank, line 4 bad
        path = write_batch(tmp_path, "a,0,1,2.0\n\n" + bad)
        with pytest.raises(MalformedRowError, match=f"line 4: {match}"):
            read_batch_csv(path)

    def test_repeated_subject_and_scale_names_both_lines(self, tmp_path):
        path = write_batch(tmp_path, "a,0,1,2.0\nb,0,1,3.0\na,1,2,1.0\na,0,1,2.0\n")
        with pytest.raises(MalformedRowError, match="line 5: subject 'a' at scale 0 already given on line 2"):
            read_batch_csv(path)

    def test_scale_with_two_factors_names_both_lines(self, tmp_path):
        path = write_batch(tmp_path, "a,0,1,2.0\na,1,2,1.0\nb,0,1,3.0\nb,1,4,1.0\n")
        with pytest.raises(MalformedRowError, match="line 5: scale 1 has factor 4, but factor 2 on line 3"):
            read_batch_csv(path)

    # The layout batch writes: a block of one row per scale for each subject,
    # each block with the first block's index and factor texts.
    def test_permuted_rows_give_the_same_table(self, tmp_path):
        permuted = [REGULAR_ROWS[i] for i in np.random.default_rng(3).permutation(len(REGULAR_ROWS))]
        tables = []
        for name, rows in (("regular", REGULAR_ROWS), ("permuted", permuted)):
            (tmp_path / name).mkdir()
            table = read_batch_csv(write_batch(tmp_path / name, "\n".join(rows) + "\n"))
            assert table.subject_ids == tuple(dict.fromkeys(row.split(",")[0] for row in rows))
            tables.append(table)
        regular, shuffled = ({sid: row.tolist() for sid, row in zip(t.subject_ids, t.complexity)} for t in tables)
        assert regular == shuffled
        assert regular["s2"] == [1.5, 2.5, 3.5]
        assert tables[0].scale_indices == tables[1].scale_indices == (0, 1, 2)
        assert tables[0].scale_factors == tables[1].scale_factors == (1, 2, 4)

    def test_block_order_of_indices_gives_sorted_columns(self, tmp_path, monkeypatch):
        calls = general_path_calls(monkeypatch)
        body = "".join(f"s{i},{k},{2**k},{10 * i + k}\n" for i in range(3) for k in (2, 0, 1))
        table = read_batch_csv(write_batch(tmp_path, body))
        assert calls == []
        assert table.scale_indices == (0, 1, 2)
        assert table.scale_factors == (1, 2, 4)
        assert table.complexity.tolist() == [[0.0, 1.0, 2.0], [10.0, 11.0, 12.0], [20.0, 21.0, 22.0]]

    @pytest.mark.parametrize("cell", [0, 1], ids=["id", "index"])
    def test_one_padded_cell_falls_back_to_the_general_path(self, tmp_path, monkeypatch, cell):
        calls = general_path_calls(monkeypatch)
        rows = [row.split(",") for row in REGULAR_ROWS]
        rows[7][cell] = f" {rows[7][cell]} "
        path = write_batch(tmp_path, "".join(",".join(row) + "\n" for row in rows))
        assert outcome(read_batch_csv, path) == outcome(oracles.read_batch_csv, path)
        assert calls == [path]

    def test_bad_complexity_mid_file_names_its_line(self, tmp_path):
        rows = list(REGULAR_ROWS)
        rows[6] = "s2,0,1,much"
        with pytest.raises(MalformedRowError, match="line 8: could not convert string to float: 'much'"):
            read_batch_csv(write_batch(tmp_path, "\n".join(rows) + "\n"))

    def test_repeated_scale_in_the_first_block_is_reported_as_before(self, tmp_path):
        path = write_batch(tmp_path, "a,0,1,2.0\na,0,1,3.0\nb,0,1,2.0\nb,0,1,3.0\n")
        with pytest.raises(MalformedRowError, match="line 3: subject 'a' at scale 0 already given on line 2"):
            read_batch_csv(path)

    def test_batch_csv_never_reaches_the_general_path(self, tmp_path, monkeypatch):
        from msc3d.cli import main

        lines = ["subject_id,volume_path,age_years"]
        for i in range(3):
            write_npy(Volume3D(np.random.default_rng(i).random((8, 8, 8))), tmp_path / f"s{i}.npy")
            lines.append(f"s{i},s{i}.npy,{50 + i}")
        (tmp_path / "manifest.csv").write_text("\n".join(lines) + "\n")
        path = tmp_path / "cohort.csv"
        assert main(["batch", str(tmp_path / "manifest.csv"), str(path), "--factors", "1,2,4", "--jobs", "1"]) == 0
        expected = outcome(oracles.read_batch_csv, path)

        def refuse(*args):
            raise AssertionError("a CSV that batch wrote took the general path")

        monkeypatch.setattr(npy_io, "_table_of_rows", refuse)
        assert outcome(read_batch_csv, path) == expected


MANIFEST_HEADER = "subject_id,volume_path,age_years\n"
FIELD_LIMIT = csv.field_size_limit()


def write_lines(path, header, lines, newline="\n", bom=""):
    """A CSV of ``header`` and ``lines``, written as the exact UTF-8 bytes."""
    path.write_bytes((bom + newline.join([header, *lines]) + newline).encode())
    return path


def write_both(tmp_path, manifest_lines, batch_lines, **spelling):
    return (
        write_lines(tmp_path / "manifest.csv", MANIFEST_HEADER.strip(), manifest_lines, **spelling),
        write_lines(tmp_path / "cohort.csv", BATCH_HEADER.strip(), batch_lines, **spelling),
    )


class TestCsvTexts:
    """Texts that a plain split on newlines and commas would misread, and
    the errors of the text itself, for both readers."""

    @pytest.mark.parametrize(
        "cells, ids",
        [(['"a,b"', '"q""r"'], ["a,b", 'q"r']), (["a", "b"], ["a", "b"])],
        ids=["quoted", "plain"],
    )
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["no_bom", "bom"])
    def test_spellings_read_alike(self, tmp_path, cells, ids, newline, bom):
        # blank lines before, between and after the rows
        manifest, batch = write_both(
            tmp_path,
            ["", f"{cells[0]},/d/0.npy,60", "", "", f"{cells[1]},/d/1.npy,61.5", ""],
            ["", f"{cells[0]},0,1,2.5", "", f"{cells[1]},0,1,3.0", f"{cells[0]},1,2,0.5", ""],
            newline=newline,
            bom=bom,
        )
        entries = read_manifest(manifest)
        assert [tuple(e) for e in entries] == [(ids[0], "/d/0.npy", 60.0), (ids[1], "/d/1.npy", 61.5)]
        table = read_batch_csv(batch)
        assert table.subject_ids == tuple(ids)
        assert (table.scale_indices, table.scale_factors) == ((0, 1), (1, 2))
        assert np.array_equal(table.complexity, [[2.5, 0.5], [3.0, np.nan]], equal_nan=True)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_whitespace_only_line_is_a_one_field_row(self, tmp_path, newline):
        manifest, batch = write_both(
            tmp_path, ["a,/d/0.npy,60", "", " \t"], ["a,0,1,2.5", "", " \t"], newline=newline
        )
        with pytest.raises(MalformedRowError, match="line 4: expected 3 fields, got 1$"):
            read_manifest(manifest)
        with pytest.raises(MalformedRowError, match="line 4: expected 4 fields, got 1$"):
            read_batch_csv(batch)

    def test_plain_text_never_reaches_csv_reader(self, tmp_path, monkeypatch):
        # an unquoted LF file is read by the split, so every read of one
        # through csv.reader would show here
        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called on a plain text")

        manifest, batch = write_both(
            tmp_path,
            ["a,/d/0.npy,60", "", "b,/d/1.npy,61"],
            ["a,0,1,2.5", "", "b,0,1,3.0"],
        )
        monkeypatch.setattr(npy_io.csv, "reader", refuse)
        assert [e.subject_id for e in read_manifest(manifest)] == ["a", "b"]
        assert read_batch_csv(batch).complexity.tolist() == [[2.5], [3.0]]

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    def test_field_over_the_limit_names_its_line(self, tmp_path, quoted):
        # csv.reader refuses a field over its limit; the split leaves every
        # line over the limit to csv.reader, so both spellings end alike
        q = '"' if quoted else ""
        long_cell = "v" * (FIELD_LIMIT + 1)
        manifest, batch = write_both(
            tmp_path,
            [f"{q}a{q},/d/0.npy,60", f"b,{long_cell},61"],
            [f"{q}a{q},0,1,2.5", "b,0,1,3.0", f"{long_cell},0,1,3.0"],
        )
        message = f"line {{}}: field larger than field limit \\({FIELD_LIMIT}\\)$"
        with pytest.raises(MalformedRowError, match=message.format(3)) as excinfo:
            read_manifest(manifest)
        assert str(excinfo.value).startswith(f"{manifest}: ")
        with pytest.raises(MalformedRowError, match=message.format(4)):
            read_batch_csv(batch)
        assert csv.field_size_limit() == FIELD_LIMIT

    def test_line_over_the_limit_with_fields_within_it_is_read(self, tmp_path):
        # the batch subject id is exactly as long as the limit allows
        half = "v" * (FIELD_LIMIT // 2 + 1)
        manifest, batch = write_both(tmp_path, [f"{half},{half},60"], [f"{half}{half[:-2]},0,1,2.5"])
        assert read_manifest(manifest) == ((half, half, 60.0),)
        assert read_batch_csv(batch).subject_ids == (half + half[:-2],)

    # A quoted id spans lines 2 and 3, so every later row is one line
    # further down the file than its csv.reader record number.
    def test_manifest_row_after_a_quoted_newline_names_its_file_line(self, tmp_path):
        path = write_lines(tmp_path / "manifest.csv", MANIFEST_HEADER.strip(), ['"a\nb",/d/1.npy,60', "c,/d/2.npy,old"])
        with pytest.raises(MalformedRowError) as excinfo:
            read_manifest(path)
        assert str(excinfo.value) == f"{path}: line 4: age_years 'old' is not a number"

    def test_batch_row_after_a_quoted_newline_names_its_file_line(self, tmp_path):
        path = write_lines(tmp_path / "cohort.csv", BATCH_HEADER.strip(), ['"a\nb",0,1,0.5', "", "c,0,1,nan"])
        with pytest.raises(MalformedRowError) as excinfo:
            read_batch_csv(path)
        assert str(excinfo.value) == f"{path}: line 5: complexity 'nan' is not finite"

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        for name, header in (("manifest.csv", MANIFEST_HEADER), ("cohort.csv", BATCH_HEADER)):
            path = tmp_path / name
            path.write_bytes(header.encode() + b"s\xff1,0,1,2.0\n")
            read = read_manifest if name == "manifest.csv" else read_batch_csv
            with pytest.raises(NotUtf8Error, match=f"^{path}: byte {len(header) + 1} is not UTF-8 text$"):
                read(path)


# Cells each column of the parity texts is drawn from: good values, values
# that need quoting, and values each row check refuses.
ID_CELLS = ("a", "b", " b ", "a,b", 'q"r', "x\ny", "")
MANIFEST_CELLS = (
    ID_CELLS,
    ("/d/1.npy", " p.npy", "p,q.npy", ""),
    ("60", " 61.5 ", "7e1", "0", "-1", "nan", "inf", "old"),
)
BATCH_CELLS = (
    ID_CELLS,
    ("0", "1", " 2 ", "x", "1.5"),
    ("1", "2", "4"),
    ("0.5", " 1e-3 ", "0", "-0.0", "-2.5", "nan", "inf", "much"),
)


@st.composite
def csv_texts(draw, header, pools, good):
    """A CSV text: rows mostly from ``good``, some with a cell from a pool,
    a field dropped or added or a row repeated; each row plain (where no
    cell holds a comma or newline), minimally quoted or fully quoted; LF,
    CRLF or CR line ends; blank and whitespace-only lines; an optional BOM
    and final newline."""
    rows = [list(row) for row in draw(good)]
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["cell", "cell", "cell", "drop", "add", "repeat"]))
        if kind == "cell" and rows[i]:
            j = draw(st.integers(0, min(len(rows[i]), len(pools)) - 1))
            rows[i][j] = draw(st.sampled_from(pools[j]))
        elif kind == "drop" and rows[i]:
            rows[i].pop()
        elif kind == "add":
            rows[i].append("9")
        else:
            rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
    quotings = [None, csv.QUOTE_MINIMAL, csv.QUOTE_ALL]
    text_quoting = draw(st.sampled_from([None, None, csv.QUOTE_MINIMAL, "mixed"]))
    lines = [header]
    for row in rows:
        lines += draw(st.sampled_from([[], [], [], [""], [""], [" "]]))
        quoting = draw(st.sampled_from(quotings)) if text_quoting == "mixed" else text_quoting
        if quoting is None and not any("," in cell or "\n" in cell for cell in row):
            lines.append(",".join(row))
        else:
            out = io.StringIO()
            csv.writer(out, quoting=quoting or csv.QUOTE_MINIMAL, lineterminator="").writerow(row)
            lines.append(out.getvalue())
    newlines = ["\n", "\r\n", "\r"]
    text_newline = draw(st.sampled_from(["\n", "\n", "\r\n", "mixed"]))
    ends = [draw(st.sampled_from(newlines)) if text_newline == "mixed" else text_newline for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return draw(st.sampled_from(["", "\ufeff"])) + text


def good_manifests():
    """Manifest rows with unique ids and good paths and ages."""
    ids = st.lists(st.sampled_from(["a", "b", "c", "a,b", 'q"r']), unique=True, max_size=4)
    row = lambda sid: st.tuples(st.just(sid), st.sampled_from(["/d/1.npy", "p.npy"]), st.sampled_from(["60", "7e1"]))
    return ids.flatmap(lambda sids: st.tuples(*map(row, sids)))


def good_batches():
    """Batch rows with unique (subject, scale) pairs, factor 2**scale and
    finite complexities >= 0, -0.0 among them."""
    keys = st.lists(st.tuples(st.sampled_from(["a", "b", "a,b"]), st.integers(0, 2)), unique=True, max_size=6)
    row = lambda key: st.tuples(
        st.just(key[0]), st.just(str(key[1])), st.just(str(2 ** key[1])), st.sampled_from(["0.5", "2.5", "1e-3", "0", "-0.0"])
    )
    return keys.flatmap(lambda keys: st.tuples(*map(row, keys)))


def outcome(read, path):
    try:
        result = read(path)
    except ManifestError as exc:
        return type(exc), str(exc)
    if isinstance(result, npy_io.BatchTable):
        matrix = result.complexity
        return result.subject_ids, result.scale_indices, result.scale_factors, matrix.shape, matrix.tobytes()
    return result


class TestReaderParity:
    """The column readers against the row-by-row csv.reader oracle."""

    @settings(max_examples=200, deadline=None)
    @given(text=csv_texts(MANIFEST_HEADER.strip(), MANIFEST_CELLS, good_manifests()))
    # csv.reader refuses a NUL before Python 3.11 and reads it as text after
    @example(text=MANIFEST_HEADER + "a\0b,p.npy,60\n")
    @example(text=MANIFEST_HEADER + "a\0b,p.npy,60\nc,q.npy,old\n")
    def test_manifest(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "manifest.csv"
            path.write_bytes(text.encode())
            assert outcome(read_manifest, path) == outcome(oracles.read_manifest, path)

    @settings(max_examples=200, deadline=None)
    @given(text=csv_texts(BATCH_HEADER.strip(), BATCH_CELLS, good_batches()))
    # 5 fields then 3 make the flat cell count of two 4-field rows, with the
    # row break in the subject column, where an empty id is allowed
    @example(text=BATCH_HEADER + "a,0,1,2.5,9\n1,2,3.0\n")
    # csv.reader refuses a NUL before Python 3.11 and reads it as text after
    @example(text=BATCH_HEADER + "a\0b,0,1,2.5\n")
    @example(text=BATCH_HEADER + "a\0b,0,1,2.5\nc,0,1,much\n")
    def test_batch(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cohort.csv"
            path.write_bytes(text.encode())
            assert outcome(read_batch_csv, path) == outcome(oracles.read_batch_csv, path)
