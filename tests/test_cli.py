from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from msc3d import (
    CorrelationRow,
    PhantomSpec,
    ScaleSchedule,
    Volume3D,
    benjamini_hochberg,
    generate_phantom,
    multiscale_profile,
    pearson_regression,
    read_npy,
    table_to_csv,
    table_to_text,
    write_npy,
)
import msc3d
from msc3d.cli import _schedule_from_args, build_parser, main

from . import oracles
from .test_npy_io import make_npy_bytes


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_phantom(path, kind="white_noise", shape=(16, 16, 16), level=1.0, seed=0, period=1):
    vol = generate_phantom(PhantomSpec(kind=kind, shape=shape, level=level, period=period, rng_seed=seed))
    write_npy(vol, path, "<f8")
    return vol


def write_cohort(tmp_path, n=3, shape=(12, 12, 12), ages=None):
    lines = ["subject_id,volume_path,age_years"]
    for i in range(n):
        write_phantom(tmp_path / f"s{i}.npy", seed=100 + i, shape=shape)
        age = ages[i] if ages else 50.0 + i
        lines.append(f"s{i},s{i}.npy,{age}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


class TestCompute:
    def test_constant_phantom_all_zero(self, tmp_path, capsys):
        path = tmp_path / "const.npy"
        write_phantom(path, kind="constant", shape=(36, 36, 36))
        code, out, _ = run_cli(capsys, "compute", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        for line in lines:
            parts = line.split(",")
            assert float(parts[2]) == 0.0

    def test_stripes_single_factor(self, tmp_path, capsys):
        path = tmp_path / "stripes.npy"
        write_phantom(path, kind="axis_stripes", shape=(8, 8, 8), level=1.0)
        code, out, _ = run_cli(capsys, "compute", str(path), "--factors", "1")
        assert code == 0
        k, factor, c, o = out.strip().split(",")
        assert (k, factor) == ("0", "1")
        assert float(c) == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert float(o) == pytest.approx(-1.0 / 6.0, abs=1e-12)

    def test_matches_library(self, tmp_path, capsys):
        path = tmp_path / "noise.npy"
        vol = write_phantom(path, shape=(20, 20, 20), seed=7)
        code, out, _ = run_cli(capsys, "compute", str(path), "--factors", "1,2,4")
        assert code == 0
        prof, _ = multiscale_profile(vol, ScaleSchedule(factors=(1, 2, 4)))
        got = [line.split(",") for line in out.strip().splitlines()]
        for row, entry in zip(got, prof.per_scale):
            assert float(row[2]) == entry.complexity
            assert float(row[3]) == entry.overlap

    def test_default_flags_on_128_cubed_match_library(self, tmp_path, capsys):
        path = tmp_path / "big.npy"
        vol = write_phantom(path, shape=(128, 128, 128), seed=11)
        code, out, _ = run_cli(capsys, "compute", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        prof, _ = multiscale_profile(vol, ScaleSchedule())
        for line, entry in zip(lines, prof.per_scale):
            parts = line.split(",")
            assert int(parts[1]) == entry.scale_factor
            assert float(parts[2]) == entry.complexity

    def test_emit_maps_and_report(self, tmp_path, capsys):
        path = tmp_path / "vol.npy"
        write_phantom(path, shape=(16, 16, 16), seed=3)
        maps_dir = tmp_path / "maps"
        report_path = tmp_path / "run.json"
        code, _, _ = run_cli(
            capsys,
            "compute", str(path),
            "--factors", "1,4",
            "--emit-maps", str(maps_dir),
            "--report", str(report_path),
        )
        assert code == 0
        map0 = read_npy(maps_dir / "vol_scale0_map.npy")
        assert map0.shape == (7, 7, 7)
        map1 = read_npy(maps_dir / "vol_scale1_map.npy")
        assert map1.shape == (1, 1, 1)
        report = json.loads(report_path.read_text())
        assert report["mode"] == "algorithm1"
        assert report["factors"] == [1, 4]
        scales = report["scales"]
        assert scales[1]["window_used"] == [4, 4, 4]  # fits exactly at factor 4
        assert scales[1]["degenerate_sweep"] is True
        assert scales[0]["stride_used"] == [2, 2, 2]

    @pytest.mark.parametrize("mode", ["algorithm1", "block-cascade", "sliding-cascade"])
    def test_report_bytes(self, tmp_path, capsys, mode):
        path = tmp_path / "vol.npy"
        write_phantom(path, shape=(10, 9, 8), seed=5)
        report_path = tmp_path / "run.json"
        code, _, _ = run_cli(
            capsys, "compute", str(path), "--mode", mode, "--factors", "1,2,4", "--report", str(report_path)
        )
        assert code == 0
        if mode == "algorithm1":
            scales = [
                {
                    "degenerate_sweep": degenerate,
                    "downsampled_shape": down,
                    "grid_shape": grid,
                    "mode": "algorithm1",
                    "padded_shape": padded,
                    "scale_factor": 2**k,
                    "scale_index": k,
                    "stride_used": [2, 2, 2],
                    "window_used": window,
                }
                for k, (degenerate, down, grid, padded, window) in enumerate(
                    [
                        (False, [10, 9, 8], [4, 3, 3], [10, 9, 8], [4, 4, 4]),
                        (True, [5, 5, 4], [1, 1, 1], [10, 10, 8], [4, 4, 4]),
                        (True, [3, 3, 2], [1, 1, 1], [12, 12, 8], [3, 3, 2]),
                    ]
                )
            ]
        else:
            lattices = [[10, 9, 8], [10, 9, 8], [5, 5, 4] if mode == "block-cascade" else [10, 9, 8]]
            scales = [
                {
                    "incremental_factor": 1 if k == 0 else 2,
                    "lattice_shape": lattice,
                    "mode": mode.replace("-", "_"),
                    "scale_factor": 2**k,
                    "scale_index": k,
                }
                for k, lattice in enumerate(lattices)
            ]
        expected = {
            "exclusions": [],
            "factors": [1, 2, 4],
            "mode": mode.replace("-", "_"),
            "scales": scales,
            "shape": [10, 9, 8],
            "stride": [2, 2, 2],
            "subject_id": "vol",
            "volume": str(path),
            "window": [4, 4, 4],
        }
        assert report_path.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "compute", str(tmp_path / "missing.npy"))
        assert code == 2
        assert "IoFailureError" in err
        assert len(err.strip().splitlines()) == 1

    def test_bytes_after_payload_exit_2(self, tmp_path, capsys):
        path = tmp_path / "long.npy"
        write_phantom(path, shape=(8, 8, 8))
        path.write_bytes(path.read_bytes() + bytes(22))
        code, out, err = run_cli(capsys, "compute", str(path), "--mode", "block-cascade")
        assert code == 2
        assert out == ""
        assert err == f"TruncatedError: {path}: payload holds 4118 bytes, shape (8, 8, 8) needs 4096\n"

    def test_infeasible_schedule_exit_3(self, tmp_path, capsys):
        path = tmp_path / "small.npy"
        write_phantom(path, shape=(8, 8, 8))
        code, _, err = run_cli(capsys, "compute", str(path), "--factors", "1,8")
        assert code == 3
        assert "ScheduleInfeasibleError" in err

    def test_out_of_memory_exit_1(self, tmp_path, capsys):
        # The one padded block is 65536^3 float64, 2 PiB: above any user
        # address space, so the allocation fails before a page is touched.
        path = tmp_path / "small.npy"
        write_phantom(path, shape=(16, 16, 16))
        argv = ["compute", str(path), "--mode", "block-cascade", "--factors", "1,65536"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("MemoryError: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("mode", ["algorithm1", "block-cascade", "sliding-cascade"])
    def test_values_overflowing_float64_exit_2(self, tmp_path, capsys, mode):
        # Finite voxels near the float64 limit, whose sums and squares are not.
        path = tmp_path / "big.npy"
        write_phantom(path, level=1e308)
        code, out, err = run_cli(capsys, "compute", str(path), "--mode", mode, "--factors", "1,2")
        assert code == 2
        assert out == ""
        assert err == (
            "ValueRangeError: volume values overflow float64 in the complexity arithmetic; rescale the volume\n"
        )

    @pytest.mark.parametrize("command", [["compute", "v.npy"], ["batch", "m.csv", "out.csv"]])
    def test_schedule_flags_default_to_the_default_schedule(self, command):
        assert _schedule_from_args(build_parser().parse_args(command)) == ScaleSchedule()


class TestBatch:
    def test_three_subjects_18_rows(self, tmp_path, capsys):
        manifest = write_cohort(tmp_path, n=3, shape=(36, 36, 36))
        out_csv = tmp_path / "cohort.csv"
        code, _, _ = run_cli(capsys, "batch", str(manifest), str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "subject_id,scale_index,scale_factor,complexity"
        assert len(lines) == 1 + 18

    def test_unreadable_file_goes_to_sidecar(self, tmp_path, capsys):
        manifest = write_cohort(tmp_path, n=3, shape=(12, 12, 12))
        (tmp_path / "s1.npy").write_bytes(b"garbage")
        out_csv = tmp_path / "cohort.csv"
        code, _, err = run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2,4,8")
        assert code == 0
        rows = out_csv.read_text().strip().splitlines()
        assert len(rows) == 1 + 2 * 4
        sidecar = tmp_path / "cohort.errors.csv"
        errors = sidecar.read_text().strip().splitlines()
        assert errors[0] == "subject_id,error,message"
        assert errors[1].startswith("s1,MagicMismatchError")
        assert "warning" in err

    def test_huge_declared_shape_goes_to_sidecar(self, tmp_path, capsys):
        manifest = write_cohort(tmp_path, n=3, shape=(12, 12, 12))
        (tmp_path / "s1.npy").write_bytes(make_npy_bytes(shape=(100000, 100000, 100000), payload=bytes(64)))
        out_csv = tmp_path / "cohort.csv"
        code, _, _ = run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2")
        assert code == 0
        assert len(out_csv.read_text().strip().splitlines()) == 1 + 2 * 2
        errors = (tmp_path / "cohort.errors.csv").read_text().strip().splitlines()
        assert errors[1].startswith("s1,TruncatedError")

    def test_bytes_after_payload_goes_to_sidecar(self, tmp_path, capsys):
        manifest = write_cohort(tmp_path, n=3, shape=(12, 12, 12))
        s1 = tmp_path / "s1.npy"
        s1.write_bytes(s1.read_bytes() + bytes(22))
        out_csv = tmp_path / "cohort.csv"
        code, _, _ = run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2")
        assert code == 0
        assert len(out_csv.read_text().strip().splitlines()) == 1 + 2 * 2
        errors = (tmp_path / "cohort.errors.csv").read_text().strip().splitlines()
        assert errors[1].startswith("s1,TruncatedError")
        assert "payload holds 13846 bytes, shape (12, 12, 12) needs 13824" in errors[1]

    @pytest.fixture
    def out_of_memory_for_s1(self, monkeypatch):
        """Reading subject s1's volume (``s1.npy``) raises ``MemoryError``."""
        read = msc3d.cli.read_npy

        def fake_read(path):
            if Path(path).name == "s1.npy":
                raise MemoryError("cannot allocate the padded volume")
            return read(path)

        monkeypatch.setattr(msc3d.cli, "read_npy", fake_read)

    def test_memory_error_goes_to_sidecar(self, tmp_path, capsys, out_of_memory_for_s1):
        manifest = write_cohort(tmp_path, n=3, shape=(12, 12, 12))
        out_csv = tmp_path / "cohort.csv"
        code, _, err = run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2", "--jobs", "1")
        assert code == 0
        rows = out_csv.read_text().strip().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["s0", "s0", "s2", "s2"]
        errors = (tmp_path / "cohort.errors.csv").read_text().strip().splitlines()
        assert errors == ["subject_id,error,message", "s1,MemoryError,cannot allocate the padded volume"]
        assert "warning: 1 subject(s) failed" in err

    def test_memory_error_strict_exit_code(self, tmp_path, capsys, out_of_memory_for_s1):
        manifest = write_cohort(tmp_path, n=3, shape=(12, 12, 12))
        out_csv = tmp_path / "cohort.csv"
        code, _, err = run_cli(
            capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2", "--jobs", "1", "--strict"
        )
        assert code == 1
        assert err == "MemoryError: cannot allocate the padded volume\n"
        assert not out_csv.exists()

    def test_values_overflowing_float64_go_to_sidecar(self, tmp_path, capsys):
        manifest = write_cohort(tmp_path, n=3, shape=(12, 12, 12))
        write_phantom(tmp_path / "s1.npy", shape=(12, 12, 12), level=1e308)
        out_csv = tmp_path / "cohort.csv"
        code, _, err = run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2", "--jobs", "1")
        assert code == 0
        rows = out_csv.read_text().strip().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["s0", "s0", "s2", "s2"]
        errors = (tmp_path / "cohort.errors.csv").read_text().strip().splitlines()
        assert errors[1:] == [
            "s1,ValueRangeError,volume values overflow float64 in the complexity arithmetic; rescale the volume"
        ]
        assert "warning: 1 subject(s) failed" in err

    @pytest.fixture
    def worker_killed_on_s3(self, monkeypatch):
        """A pool worker that starts reading ``s3.npy`` ends its own process
        with ``os._exit``; the test process reads it as usual."""
        read, parent = msc3d.cli.read_npy, os.getpid()

        def killing_read(path):
            if Path(path).name == "s3.npy" and os.getpid() != parent:
                os._exit(1)
            return read(path)

        monkeypatch.setattr(msc3d.cli, "read_npy", killing_read)

    def test_killed_worker_loses_no_finished_subject(self, tmp_path, capfd, worker_killed_on_s3):
        manifest = write_cohort(tmp_path, n=6, shape=(12, 12, 12))
        ref_csv = tmp_path / "ref.csv"
        # At --jobs 1 the test process reads every volume itself, s3 included.
        assert main(["batch", str(manifest), str(ref_csv), "--factors", "1,2", "--jobs", "1"]) == 0
        out_csv = tmp_path / "cohort.csv"
        capfd.readouterr()
        code = main(["batch", str(manifest), str(out_csv), "--factors", "1,2", "--jobs", "2"])
        err = capfd.readouterr().err
        assert code == 0
        sidecar = tmp_path / "cohort.errors.csv"
        lost = [row.split(",")[:2] for row in sidecar.read_text().splitlines()[1:]]
        assert err == f"warning: {len(lost)} subject(s) failed, see {sidecar}\n"
        assert {name for _, name in lost} == {"BrokenProcessPool"}
        assert ["s3", "BrokenProcessPool"] in lost
        rows = out_csv.read_text().splitlines()[1:]
        written = list(dict.fromkeys(row.split(",")[0] for row in rows))
        assert sorted(written + [sid for sid, _ in lost]) == [f"s{i}" for i in range(6)]
        assert rows == [row for row in ref_csv.read_text().splitlines()[1:] if row.split(",")[0] in written]

    def test_killed_worker_strict_exit_1(self, tmp_path, capfd, worker_killed_on_s3):
        manifest = write_cohort(tmp_path, n=6, shape=(12, 12, 12))
        out_csv = tmp_path / "cohort.csv"
        code = main(["batch", str(manifest), str(out_csv), "--factors", "1,2", "--jobs", "2", "--strict"])
        err = capfd.readouterr().err
        assert code == 1
        assert err.startswith("BrokenProcessPool: ")
        assert len(err.splitlines()) == 1
        assert not out_csv.exists()

    def test_strict_aborts(self, tmp_path, capsys):
        manifest = write_cohort(tmp_path, n=2, shape=(12, 12, 12))
        (tmp_path / "s0.npy").unlink()
        out_csv = tmp_path / "cohort.csv"
        code, _, err = run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2", "--strict")
        assert code == 2
        assert "IoFailureError" in err
        assert not out_csv.exists()

    def test_rows_match_compute(self, tmp_path, capsys):
        manifest = write_cohort(tmp_path, n=2, shape=(16, 16, 16))
        out_csv = tmp_path / "cohort.csv"
        code, _, _ = run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2")
        assert code == 0
        batch_lines = out_csv.read_text().strip().splitlines()[1:]
        for i in range(2):
            code, out, _ = run_cli(capsys, "compute", str(tmp_path / f"s{i}.npy"), "--factors", "1,2")
            assert code == 0
            for line in out.strip().splitlines():
                k, factor, c, _ = line.split(",")
                assert f"s{i},{k},{factor},{c}" in batch_lines

    def test_deterministic_across_jobs(self, tmp_path, capsys):
        manifest = write_cohort(tmp_path, n=4, shape=(16, 16, 16))
        outs = []
        for jobs, name in ((1, "a.csv"), (2, "b.csv")):
            out_csv = tmp_path / name
            code, _, _ = run_cli(
                capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2,4", "--jobs", str(jobs)
            )
            assert code == 0
            outs.append(out_csv.read_bytes())
        assert outs[0] == outs[1]

    def test_mode_flag(self, tmp_path, capsys):
        manifest = write_cohort(tmp_path, n=1, shape=(16, 16, 16))
        out_csv = tmp_path / "cohort.csv"
        code, _, _ = run_cli(
            capsys, "batch", str(manifest), str(out_csv), "--mode", "sliding-cascade", "--factors", "1,2,4"
        )
        assert code == 0
        vol = read_npy(tmp_path / "s0.npy")
        prof, _ = multiscale_profile(vol, ScaleSchedule(factors=(1, 2, 4), mode="sliding_cascade"))
        lines = out_csv.read_text().strip().splitlines()[1:]
        assert float(lines[1].split(",")[3]) == prof.per_scale[1].complexity


class TestCorrelate:
    def build_noiseless_cohort(self, tmp_path, capsys):
        # complexity scales exactly with age^-0.25 via amplitude = age^-0.125
        ages = np.linspace(44.0, 90.0, 8)
        lines = ["subject_id,volume_path,age_years"]
        base = generate_phantom(PhantomSpec(kind="white_noise", shape=(12, 12, 12), level=1.0, rng_seed=9))
        for i, age in enumerate(ages):
            vol = Volume3D(float(age**-0.125) * base.data)
            write_npy(vol, tmp_path / f"s{i}.npy", "<f8")
            lines.append(f"s{i},s{i}.npy,{age}")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n")
        out_csv = tmp_path / "cohort.csv"
        code, _, _ = run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2")
        assert code == 0
        return manifest, out_csv

    def test_noiseless_slope(self, tmp_path, capsys):
        manifest, batch_csv = self.build_noiseless_cohort(tmp_path, capsys)
        prefix = tmp_path / "corr"
        code, out, _ = run_cli(capsys, "correlate", str(batch_csv), str(manifest), str(prefix))
        assert code == 0
        table = (tmp_path / "corr.csv").read_text().strip().splitlines()
        assert table[0] == "scale_index,scale_factor,n,r,p,q_fdr,slope,intercept"
        for line in table[1:]:
            parts = line.split(",")
            assert float(parts[3]) == pytest.approx(-1.0, abs=1e-9)   # r
            assert float(parts[6]) == pytest.approx(-0.25, abs=1e-9)  # slope
        assert "scale" in out

    def test_scatter_files(self, tmp_path, capsys):
        manifest, batch_csv = self.build_noiseless_cohort(tmp_path, capsys)
        prefix = tmp_path / "corr"
        code, _, _ = run_cli(capsys, "correlate", str(batch_csv), str(manifest), str(prefix))
        assert code == 0
        for k in (0, 1):
            scatter = (tmp_path / f"corr_scale{k}_scatter.csv").read_text().strip().splitlines()
            assert scatter[0] == "log_age,log_C"
            assert len(scatter) == 1 + 8
            first = scatter[1].split(",")
            assert float(first[0]) == pytest.approx(np.log(44.0))

    def test_missing_subject_warning(self, tmp_path, capsys):
        manifest, batch_csv = self.build_noiseless_cohort(tmp_path, capsys)
        text = batch_csv.read_text().splitlines()
        trimmed = [row for row in text if not row.startswith("s0,")]
        batch_csv.write_text("\n".join(trimmed) + "\n")
        code, _, err = run_cli(capsys, "correlate", str(batch_csv), str(manifest), str(tmp_path / "c"))
        assert code == 0
        assert "s0" in err

    def test_zero_complexity_subject_reported_excluded(self, tmp_path, capsys):
        lines = ["subject_id,volume_path,age_years"]
        for i in range(3):
            write_phantom(tmp_path / f"s{i}.npy", seed=40 + i, shape=(12, 12, 12))
            lines.append(f"s{i},s{i}.npy,{50 + i}")
        write_phantom(tmp_path / "flat.npy", kind="constant", shape=(12, 12, 12))
        lines.append("flat,flat.npy,80")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n")
        out_csv = tmp_path / "cohort.csv"
        assert run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2")[0] == 0
        code, _, err = run_cli(capsys, "correlate", str(out_csv), str(manifest), str(tmp_path / "c"))
        assert code == 0
        assert "excluded" in err
        table = (tmp_path / "c.csv").read_text().strip().splitlines()
        assert all(line.split(",")[2] == "3" for line in table[1:])  # n excludes the flat subject

    def test_all_zero_complexity_exit_5(self, tmp_path, capsys):
        lines = ["subject_id,volume_path,age_years"]
        for i in range(3):
            write_phantom(tmp_path / f"s{i}.npy", kind="constant", shape=(8, 8, 8))
            lines.append(f"s{i},s{i}.npy,{50 + i}")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n")
        out_csv = tmp_path / "cohort.csv"
        code, _, _ = run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2")
        assert code == 0
        code, _, err = run_cli(capsys, "correlate", str(out_csv), str(manifest), str(tmp_path / "c"))
        assert code == 5
        assert "Error" in err

    @staticmethod
    def write_tables(tmp_path, batch_rows, ages):
        """A batch CSV and its manifest, for correlate alone (no volumes)."""
        batch = tmp_path / "cohort.csv"
        batch.write_text(
            "subject_id,scale_index,scale_factor,complexity\n"
            + "".join(f"{sid},{k},{factor},{c!r}\n" for sid, k, factor, c in batch_rows)
        )
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "subject_id,volume_path,age_years\n" + "".join(f"{sid},{sid}.npy,{age!r}\n" for sid, age in ages)
        )
        return batch, manifest

    def test_outputs_match_loop_oracle_byte_for_byte(self, tmp_path, capsys):
        rng = np.random.default_rng(2026)
        factors = (1, 2, 4, 8)
        ages = [(f"sub{i:03d}", round(float(a), 2)) for i, a in enumerate(rng.uniform(45.0, 80.0, 300))]
        batch_rows = []
        for sid, age in ages[20:]:  # the first 20 manifest subjects have no rows
            for k, factor in enumerate(factors):
                c = 0.0 if rng.random() < 0.05 else age ** (-0.3 * k) * math.exp(rng.normal(0.0, 0.1))
                batch_rows.append((sid, k, factor, c))
        batch_rows = [batch_rows[i] for i in rng.permutation(len(batch_rows))]
        batch, manifest = self.write_tables(tmp_path, batch_rows, ages)
        code, out, err = run_cli(capsys, "correlate", str(batch), str(manifest), str(tmp_path / "corr"))
        assert code == 0
        assert err.count("has no rows in the batch CSV") == 20
        assert "excluded (zero complexity)" in err

        pairs = [oracles.log_log_pairs_by_subject(batch_rows, ages, k) for k in range(len(factors))]
        fits = [pearson_regression([(log_age, log_c) for log_c, log_age in p]) for p in pairs]
        qs = benjamini_hochberg([fit.p for fit in fits])
        rows = [
            CorrelationRow(k, factor, len(p), fit.r, fit.p, q, fit.slope, fit.intercept)
            for k, (factor, p, fit, q) in enumerate(zip(factors, pairs, fits, qs))
        ]
        assert any(row.n < 280 for row in rows)
        assert (tmp_path / "corr.csv").read_bytes() == table_to_csv(rows).encode()
        assert (tmp_path / "corr.txt").read_bytes() == table_to_text(rows).encode()
        assert out == table_to_text(rows)
        for k, p in enumerate(pairs):
            scatter = "log_age,log_C\n" + "".join(f"{log_age!r},{log_c!r}\n" for log_c, log_age in p)
            assert (tmp_path / f"corr_scale{k}_scatter.csv").read_bytes() == scatter.encode()

    def test_same_output_at_every_blas_thread_count(self, tmp_path):
        # 20,000 subjects is above the length at which BLAS splits a dot
        # product across its threads.
        rng = np.random.default_rng(7)
        ages = [(f"s{i:05d}", float(a)) for i, a in enumerate(rng.uniform(45.0, 80.0, 20_000))]
        noise = rng.normal(0.0, 0.05, (len(ages), 6))
        rows = [
            (sid, k, 2**k, math.exp((0.8 - 0.4 * k) * math.log(age) - 3.0 + noise[i, k]))
            for i, (sid, age) in enumerate(ages)
            for k in range(6)
        ]
        batch, manifest = self.write_tables(tmp_path, rows, ages)
        src = str(Path(msc3d.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            subprocess.run(
                [sys.executable, "-m", "msc3d.cli", "correlate", str(batch), str(manifest), str(out / "corr")],
                env=env,
                check=True,
                capture_output=True,
                timeout=120,
            )
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert len(outputs[0]) == 8
        assert outputs[0] == outputs[1]

    def small_cohort(self):
        ages = [(f"s{i}", 50.0 + 7.0 * i) for i in range(4)]
        rows = [(sid, k, 2**k, (1.0 + k) * age**-0.25) for sid, age in ages for k in range(2)]
        return rows, ages

    def test_unknown_subject_warns_and_is_ignored(self, tmp_path, capsys):
        rows, ages = self.small_cohort()
        rows += [("ghost", k, 2**k, 1.0) for k in range(2)]
        batch, manifest = self.write_tables(tmp_path, rows, ages)
        code, _, err = run_cli(capsys, "correlate", str(batch), str(manifest), str(tmp_path / "c"))
        assert code == 0
        assert "warning: subject 'ghost' is not in the manifest; ignored" in err
        assert "skipped" not in err and "excluded" not in err
        table = (tmp_path / "c.csv").read_text().strip().splitlines()
        assert [line.split(",")[2] for line in table[1:]] == ["4", "4"]

    def test_missing_and_unknown_subject_warnings_in_order(self, tmp_path, capsys):
        rows, ages = self.small_cohort()
        rows = [("ghost", 0, 1, 1.0)] + [row for row in rows if row[0] != "s1"]
        batch, manifest = self.write_tables(tmp_path, rows, ages + [("late", 90.0)])
        code, _, err = run_cli(capsys, "correlate", str(batch), str(manifest), str(tmp_path / "c"))
        assert code == 0
        assert err.splitlines() == [
            "warning: subject 's1' has no rows in the batch CSV",
            "warning: subject 'late' has no rows in the batch CSV",
            "warning: subject 'ghost' is not in the manifest; ignored",
        ]
        table = (tmp_path / "c.csv").read_text().strip().splitlines()
        assert [line.split(",")[2] for line in table[1:]] == ["3", "3"]

    def test_empty_table_exit_5_after_missing_warnings(self, tmp_path, capsys):
        _, ages = self.small_cohort()
        batch, manifest = self.write_tables(tmp_path, [], ages[:2])
        code, out, err = run_cli(capsys, "correlate", str(batch), str(manifest), str(tmp_path / "c"))
        assert code == 5
        assert out == ""
        assert err.splitlines() == [
            "warning: subject 's0' has no rows in the batch CSV",
            "warning: subject 's1' has no rows in the batch CSV",
            "EmptyAfterFilteringError: batch CSV holds no complexity rows",
        ]
        assert not (tmp_path / "c.csv").exists()

    def test_repeated_subject_and_scale_exit_2(self, tmp_path, capsys):
        rows, ages = self.small_cohort()
        rows.append(("s1", 0, 1, 0.5))  # line 10
        batch, manifest = self.write_tables(tmp_path, rows, ages)
        code, _, err = run_cli(capsys, "correlate", str(batch), str(manifest), str(tmp_path / "c"))
        assert code == 2
        assert err.startswith("MalformedRowError: ")
        assert "line 10: subject 's1' at scale 0 already given on line 4" in err
        assert not (tmp_path / "c.csv").exists()

    def test_scale_with_two_factors_exit_2(self, tmp_path, capsys):
        rows, ages = self.small_cohort()
        rows[5] = ("s2", 1, 3, rows[5][3])  # line 7: scale 1 is factor 2 everywhere else
        batch, manifest = self.write_tables(tmp_path, rows, ages)
        code, _, err = run_cli(capsys, "correlate", str(batch), str(manifest), str(tmp_path / "c"))
        assert code == 2
        assert err.startswith("MalformedRowError: ")
        assert "line 7: scale 1 has factor 3, but factor 2 on line 3" in err
        assert not (tmp_path / "c.csv").exists()


class TestSynth:
    def test_constant_volume(self, tmp_path, capsys):
        out = tmp_path / "c.npy"
        code, echo, _ = run_cli(
            capsys, "synth", str(out), "--kind", "constant", "--level", "1", "--shape", "8,8,8"
        )
        assert code == 0
        assert "kind=constant" in echo
        vol = read_npy(out)
        assert vol.shape == (8, 8, 8)
        assert np.all(vol.data == 1.0)

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.npy", tmp_path / "b.npy"]
        for p in paths:
            code, _, _ = run_cli(
                capsys, "synth", str(p), "--kind", "white_noise", "--shape", "10,10,10", "--seed", "5"
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_smoothed_noise_is_smoother_than_raw(self, tmp_path, capsys):
        from msc3d import sliding_mean

        raw_path = tmp_path / "raw.npy"
        smooth_path = tmp_path / "smooth.npy"
        run_cli(capsys, "synth", str(raw_path), "--kind", "white_noise", "--shape", "16,16,16", "--seed", "4")
        code, _, _ = run_cli(
            capsys, "synth", str(smooth_path), "--kind", "smoothed_noise", "--level", "2",
            "--shape", "16,16,16", "--seed", "4",
        )
        assert code == 0
        # distance to the sliding-mean fixed point shrinks after smoothing
        def fixed_point_distance(path):
            vol = read_npy(path)
            return float(np.mean((vol.data - sliding_mean(vol, 5).data) ** 2))

        assert fixed_point_distance(smooth_path) < fixed_point_distance(raw_path)

    def test_invalid_spec_exit_4(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "synth", str(tmp_path / "x.npy"), "--kind", "smoothed_noise", "--level", "1.5"
        )
        assert code == 4
        assert "InvalidSpecError" in err

    def test_shape_beyond_intp_exit_4(self, tmp_path, capsys):
        out = tmp_path / "x.npy"
        shape = "1048576,1048576,1048576"
        code, _, err = run_cli(capsys, "synth", str(out), "--kind", "white_noise", "--shape", shape)
        assert code == 4
        assert err.startswith("InvalidSpecError: shape (1048576, 1048576, 1048576) ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_out_of_memory_exit_1(self, tmp_path, capsys):
        # 2^48 float64 values, 2 PiB: indexable, but above any user address
        # space, so the allocation fails before a page is touched.
        out = tmp_path / "x.npy"
        shape = "131072,131072,16384"
        code, _, err = run_cli(capsys, "synth", str(out), "--kind", "white_noise", "--shape", shape)
        assert code == 1
        assert err.startswith("MemoryError: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_level_beyond_float32_exit_2(self, tmp_path, capsys):
        out = tmp_path / "c.npy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, echo, err = run_cli(
                capsys, "synth", str(out), "--kind", "constant", "--level", "1e39", "--shape", "4,4,4",
                "--dtype", "f4",
            )
        assert code == 2
        assert echo == ""
        assert err == f"NonFiniteDataError: {out}: values beyond the float32 range cannot be written as '<f4'\n"
        assert not out.exists()

    @pytest.mark.parametrize("level", ["1e300", "1e30"])
    def test_radius_beyond_largest_dimension_exit_4(self, tmp_path, capsys, level):
        out = tmp_path / "a.npy"
        argv = ["synth", str(out), "--kind", "smoothed_noise", "--level", level, "--shape", "4,4,4"]
        code, echo, err = run_cli(capsys, *argv)
        assert code == 4
        assert echo == ""
        assert err == f"InvalidSpecError: smoothing radius must be an integer of at most 4, got {float(level):g}\n"
        assert not out.exists()

    def test_radius_of_largest_dimension_generates(self, tmp_path, capsys):
        out = tmp_path / "a.npy"
        argv = ["synth", str(out), "--kind", "smoothed_noise", "--level", "6", "--shape", "4,6,5"]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert read_npy(out).shape == (4, 6, 5)


class TestSlice:
    def read_pgm(self, path):
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n")
        rest = blob[3:]
        dims_line, rest = rest.split(b"\n", 1)
        maxval_line, pixels = rest.split(b"\n", 1)
        width, height = (int(t) for t in dims_line.split())
        assert maxval_line == b"255"
        return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)

    def test_constant_maps_to_gray_128(self, tmp_path, capsys):
        path = tmp_path / "c.npy"
        write_phantom(path, kind="constant", shape=(6, 7, 8))
        out = tmp_path / "c.pgm"
        code, _, _ = run_cli(capsys, "slice", str(path), "z", str(out))
        assert code == 0
        img = self.read_pgm(out)
        assert img.shape == (7, 6)  # height = second remaining axis (y), width = x
        assert np.all(img == 128)

    def test_stripes_axis_y_alternating_columns(self, tmp_path, capsys):
        path = tmp_path / "stripes.npy"
        write_phantom(path, kind="axis_stripes", shape=(8, 8, 8), level=1.0)
        out = tmp_path / "s.pgm"
        code, _, _ = run_cli(capsys, "slice", str(path), "y", str(out))
        assert code == 0
        img = self.read_pgm(out)
        expected_col = (np.arange(8) % 2) * 255
        for row in img:
            assert np.array_equal(row, expected_col)

    def test_dimensions_match_slice(self, tmp_path, capsys):
        path = tmp_path / "v.npy"
        write_phantom(path, shape=(5, 6, 7), seed=2)
        out = tmp_path / "v.pgm"
        code, _, _ = run_cli(capsys, "slice", str(path), "x", str(out))
        assert code == 0
        img = self.read_pgm(out)
        assert img.shape == (7, 6)  # (z, y) for an x slice

    def test_io_error_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "slice", str(tmp_path / "none.npy"), "z", str(tmp_path / "o.pgm"))
        assert code == 2
