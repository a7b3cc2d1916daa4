from __future__ import annotations

import struct
import warnings

import numpy as np
import pytest

from msc3d import Volume3D, read_manifest, read_npy, write_npy
from msc3d.npy_io import (
    BadShapeError,
    DuplicateSubjectError,
    HeaderMalformedError,
    IoFailureError,
    MagicMismatchError,
    MalformedRowError,
    MissingColumnError,
    NonFiniteDataError,
    NonPositiveAgeError,
    TruncatedError,
    UnsupportedDtypeError,
    UnsupportedLayoutError,
    UnsupportedVersionError,
    read_batch_csv,
)


def make_npy_bytes(descr="<f8", fortran=False, shape=(2, 2, 2), payload=None, version=b"\x01\x00"):
    header = f"{{'descr': '{descr}', 'fortran_order': {fortran}, 'shape': {shape}, }}"
    raw = header.encode() + b"\n"
    if payload is None:
        count = int(np.prod(shape))
        payload = np.zeros(count, dtype=descr if descr.startswith("<f") else "<f8").tobytes()
    return b"\x93NUMPY" + version + struct.pack("<H", len(raw)) + raw + payload


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
