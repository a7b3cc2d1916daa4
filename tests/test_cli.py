from __future__ import annotations

import csv
import errno
import gc
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings
import weakref
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
    multiscale_run,
    pearson_regression,
    read_npy,
    table_to_csv,
    table_to_text,
    write_npy,
)
import msc3d
import msc3d.runner
from msc3d import coarse
from msc3d.cli import MODE_FLAGS, _batch_task, _schedule_from_args, build_parser, main

from . import oracles
from .conftest import traced_peak
from .test_npy_io import MALFORMED_HEADERS, general_path_calls, make_npy_bytes


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env(**overrides):
    """The environment with this package's source on PYTHONPATH, for a
    subprocess that imports it."""
    env = dict(os.environ, **overrides)
    src = str(Path(msc3d.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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


def forbidden_start_child(run, tasks, share):
    """A stand-in for ``msc3d.runner._start_child`` in a batch that must fork
    no child."""
    raise AssertionError("forked a child")


def open_error(path):
    """The ``ErrorName: message`` line of the error ``open(path, "w")`` gives."""
    with pytest.raises(OSError) as opened:
        open(path, "w")
    return f"{type(opened.value).__name__}: {opened.value}"


def least_side_cubed_above_float64_max():
    """The least integer whose cube exceeds the largest float64, by integer
    Newton steps down from a power of two above the cube root."""
    top = int(sys.float_info.max)
    side = 1 << -(-top.bit_length() // 3)
    while side**3 > top:
        side = (2 * side + top // side**2) // 3
    return side + 1


# Bytes that end a CSV's text: one that is not UTF-8, and a field over
# csv.reader's limit.
BAD_CSV_TAILS = {
    "not_utf8": b"s9,\xff,1\n",
    "long_field": b"s9," + b"v" * (csv.field_size_limit() + 1) + b",1\n",
}


def spoil_csv(path, bad):
    """Append a line ``bad`` to the CSV at ``path``; the one stderr line
    that reading it must give."""
    held = path.read_bytes()
    path.write_bytes(held + BAD_CSV_TAILS[bad])
    if bad == "not_utf8":
        return f"NotUtf8Error: {path}: byte {len(held) + 3} is not UTF-8 text"
    line = held.count(b"\n") + 1
    return f"MalformedRowError: {path}: line {line}: field larger than field limit ({csv.field_size_limit()})"


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
        prof = multiscale_run(vol, ScaleSchedule(factors=(1, 2, 4))).profile
        got = [line.split(",") for line in out.strip().splitlines()]
        for row, entry in zip(got, prof):
            assert float(row[2]) == entry.complexity
            assert float(row[3]) == entry.overlap

    def test_default_flags_on_128_cubed_match_library(self, tmp_path, capsys):
        path = tmp_path / "big.npy"
        vol = write_phantom(path, shape=(128, 128, 128), seed=11)
        code, out, _ = run_cli(capsys, "compute", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        prof = multiscale_run(vol, ScaleSchedule()).profile
        for line, entry in zip(lines, prof):
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

    def test_bool_dim_in_header_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bool.npy"
        path.write_bytes(make_npy_bytes(shape=(True, 2, 2), payload=bytes(32)))
        code, out, err = run_cli(capsys, "compute", str(path))
        assert (code, out, err) == (2, "", f"HeaderMalformedError: {path}: shape must be a tuple of ints\n")

    def test_malformed_header_exit_2(self, tmp_path, capsys):
        blob, message = MALFORMED_HEADERS["integer_fortran_order"]
        path = tmp_path / "v.npy"
        path.write_bytes(blob)
        code, out, err = run_cli(capsys, "compute", str(path))
        assert (code, out, err) == (2, "", f"HeaderMalformedError: {path}: {message}\n")

    def test_unindexable_block_lattice_exit_3(self, tmp_path, capsys):
        path = tmp_path / "small.npy"
        write_phantom(path, shape=(8, 8, 8))
        argv = ["compute", str(path), "--mode", "block-cascade", "--factors", "1,1000000000000"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (
            "ScheduleInfeasibleError: factor 1000000000000: pads the lattice (8, 8, 8) to "
            "(1000000000000, 1000000000000, 1000000000000), one row of whose blocks takes "
            f"{8 * 10**36} bytes, more than memory holds\n"
        )

    def test_block_row_beyond_memory_exit_3(self, tmp_path, capsys):
        # One block of side 10**6 pads 9^3 to a lattice that an intp still
        # indexes, but one row of its blocks is 8e18 bytes, more than any host
        # holds: the step is refused, not allocated.
        path = tmp_path / "v.npy"
        assert run_cli(capsys, "synth", str(path), "--kind", "white_noise", "--shape", "9,9,9")[0] == 0
        message = (
            "factor 1000000: pads the lattice (9, 9, 9) to (1000000, 1000000, 1000000), "
            "one row of whose blocks takes 8000000000000000000 bytes, more than memory holds"
        )
        argv = ["--mode", "block-cascade", "--factors", "1,1000000"]
        assert run_cli(capsys, "compute", str(path), *argv) == (3, "", f"ScheduleInfeasibleError: {message}\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("subject_id,volume_path,age_years\nv,v.npy,50\n")
        code, _, _ = run_cli(capsys, "batch", str(manifest), str(tmp_path / "out.csv"), *argv)
        assert code == 0
        with open(tmp_path / "out.errors.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [["subject_id", "error", "message"], ["v", "ScheduleInfeasibleError", message]]
        # a factor whose blocks fit runs as it always has
        vol = read_npy(path)
        profile = multiscale_run(vol, ScaleSchedule(factors=(1, 16), mode="block_cascade")).profile
        code, out, err = run_cli(capsys, "compute", str(path), "--mode", "block-cascade", "--factors", "1,16")
        assert (code, err) == (0, "")
        assert out == "".join(f"{e.scale_index},{e.scale_factor},{e.complexity!r},{e.overlap!r}\n" for e in profile)
        assert profile[1].complexity == pytest.approx(oracles.block_cascade(vol.data, (1, 16))[1], rel=1e-12)

    def test_sliding_step_whose_cube_overflows_float64_exit_3(self, tmp_path, capsys):
        path = tmp_path / "v9.npy"
        write_phantom(path, shape=(9, 9, 9))
        side = 10**103
        argv = ["compute", str(path), "--mode", "sliding-cascade", "--factors", f"1,{side}"]
        assert run_cli(capsys, *argv) == (
            3, "", f"ScheduleInfeasibleError: factor {side}: window side {side} cubed overflows float64\n"
        )

    @pytest.mark.parametrize("side", [10**102, least_side_cubed_above_float64_max()], ids=["1e102", "cube_above_max"])
    def test_sliding_step_whose_cube_rounds_to_a_float64_runs(self, tmp_path, capsys, side):
        # A cube above the largest float64 that still rounds down to it is
        # not an overflow, so such a step runs as it always has.
        assert float(side**3) <= sys.float_info.max
        path = tmp_path / "v9.npy"
        vol = write_phantom(path, shape=(9, 9, 9))
        code, out, err = run_cli(capsys, "compute", str(path), "--mode", "sliding-cascade", "--factors", f"1,{side}")
        profile = multiscale_run(vol, ScaleSchedule(factors=(1, side), mode="sliding_cascade")).profile
        assert (code, err) == (0, "")
        assert out == "".join(f"{e.scale_index},{e.scale_factor},{e.complexity!r},{e.overlap!r}\n" for e in profile)

    def test_out_of_memory_exit_1(self, tmp_path, capsys, monkeypatch):
        # The one padded block is 65536^3 float64, 2 PiB: above any user
        # address space, so the allocation fails before a page is touched.
        # Where the OS reports its memory, such a step is refused before it
        # allocates; here the OS reports none, so only the intp bound guards
        # the block, and 2 PiB passes it.
        def no_sysconf(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(os, "sysconf", no_sysconf)
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

    @pytest.mark.parametrize("factors", ["1,2", "2,4", "1,3,4"])
    def test_algorithm1_offset_overflowing_float64_exit_2(self, tmp_path, capsys, factors):
        """algorithm1 takes its coarse levels relative to the first voxel,
        subtracting it a slab at a time; here ``v - ref`` itself overflows,
        and on ``2,4`` that subtraction is the first arithmetic to do so."""
        arr = np.full((16, 16, 16), 1.7e308)
        arr[0, 0, 0] = -1.7e308
        path = tmp_path / "big.npy"
        write_npy(Volume3D(arr), path, "<f8")
        code, out, err = run_cli(capsys, "compute", str(path), "--mode", "algorithm1", "--factors", factors)
        assert (code, out) == (2, "")
        assert err == (
            "ValueRangeError: volume values overflow float64 in the complexity arithmetic; rescale the volume\n"
        )

    # sha256 of algorithm1's stdout and of its maps' .npy bytes, in scale
    # order, for a white-noise phantom on a 1e4 DC offset.
    ALGORITHM1_DIGESTS = {
        ((35, 41, 37), "1,2,4,8,16,32"): (
            "6d5b05894ab6e7f8367508733d329ff7e864967fbc131d199eb6a0696bee26e3",
            "977c49705daa265ffa9f8d01737d358c2e5bfe489d3f81e01c4bf785e1a06a6e",
        ),
        ((20, 17, 23), "1,3,6"): (
            "4e1080ec802da264a853fee16f7fab6ecb933fbd31fb38f94f228f210c7a4191",
            "50966980fd1076f23c8784b51c882038aec4ff8cedb08404fe09d1c2d6f415a3",
        ),
    }

    @pytest.mark.parametrize("one_plane_slabs", [False, True], ids=["default-slabs", "one-plane-slabs"])
    @pytest.mark.parametrize("shape, factors", sorted(ALGORITHM1_DIGESTS), ids=str)
    def test_algorithm1_outputs_are_pinned_to_the_bit(self, tmp_path, capsys, monkeypatch, shape, factors, one_plane_slabs):
        """The profile and the map bytes stay those of the whole-field sweep,
        however many slabs the streamed kernels walk."""
        if one_plane_slabs:
            monkeypatch.setattr(coarse, "SLAB_ELEMENTS", shape[1] * shape[2])
        noise = generate_phantom(PhantomSpec(kind="white_noise", shape=shape, level=1.0, rng_seed=61))
        path = tmp_path / "vol.npy"
        write_npy(Volume3D(noise.data + 1e4), path, "<f8")
        maps = tmp_path / "maps"
        code, out, err = run_cli(capsys, "compute", str(path), "--factors", factors, "--emit-maps", str(maps))
        assert (code, err) == (0, "")
        map_bytes = b"".join((maps / f"vol_scale{k}_map.npy").read_bytes() for k in range(factors.count(",") + 1))
        digests = (hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(map_bytes).hexdigest())
        assert digests == self.ALGORITHM1_DIGESTS[shape, factors]

    @pytest.mark.parametrize("command", [["compute", "v.npy"], ["batch", "m.csv", "out.csv"]])
    def test_schedule_flags_default_to_the_default_schedule(self, command):
        assert _schedule_from_args(build_parser().parse_args(command)) == ScaleSchedule()


class TestParser:
    """One parser serves every ``main`` call in a process."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_reused_parser_leaks_no_flags(self, tmp_path, capsys):
        path = tmp_path / "v.npy"
        write_phantom(path, shape=(64, 64, 64))
        build_parser.cache_clear()
        first = run_cli(capsys, "compute", str(path))
        assert first[0] == 0
        maps, report = tmp_path / "maps", tmp_path / "report.json"
        argv = ["compute", str(path), "--emit-maps", str(maps), "--report", str(report), "--mode", "sliding-cascade"]
        assert run_cli(capsys, *argv)[0] == 0
        assert report.is_file()
        maps.rmdir()
        report.unlink()
        assert run_cli(capsys, "compute", str(path)) == first
        assert not maps.exists() and not report.exists()

    def test_command_replaced_after_first_call_is_the_one_that_runs(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "v.npy"
        write_phantom(path, shape=(8, 8, 8))
        assert run_cli(capsys, "compute", str(path), "--factors", "1,2")[0] == 0
        seen = []
        monkeypatch.setattr(msc3d.cli, "cmd_compute", lambda args: seen.append(args.volume) or 7)
        assert run_cli(capsys, "compute", str(path), "--factors", "1,2")[0] == 7
        assert seen == [str(path)]

    def test_import_builds_no_parser_and_loads_no_scipy(self):
        probe = (
            "import sys, msc3d.cli; print(msc3d.cli.build_parser.cache_info().currsize, 'scipy' in sys.modules, "
            "'concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=src_env(), capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "0 False False False\n", "")


class TestEntryPoint:
    """``python -m msc3d.cli`` runs ``main`` through ``run`` and exits with its code."""

    @staticmethod
    def run_module(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "msc3d.cli", *argv], env=src_env(), capture_output=True, text=True, timeout=60
        )
        return done.returncode, done.stdout, done.stderr

    def test_good_volume_prints_what_main_prints(self, tmp_path, capsys):
        path = tmp_path / "v.npy"
        write_phantom(path, shape=(8, 8, 8))
        argv = ["compute", str(path), "--factors", "1,2"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out.count("\n"), err) == (0, 2, "")
        assert self.run_module(*argv) == (0, out, "")

    def test_missing_file_exit_2(self, tmp_path):
        path = tmp_path / "missing.npy"
        line = f"IoFailureError: {path}: [Errno 2] No such file or directory: '{path}'\n"
        assert self.run_module("compute", str(path)) == (2, "", line)


class TestFlagErrors:
    """A bad flag value, or an output in a missing directory, gives one
    stderr line and its exit code, and writes nothing."""

    @pytest.mark.parametrize(
        "argv, line, code",
        [
            (
                ["compute", "v.npy", "--factors", "1,x"],
                "ScheduleInfeasibleError: --factors must be comma-separated integers, got '1,x'",
                3,
            ),
            (
                ["compute", "v.npy", "--window", "4,4"],
                "ScheduleInfeasibleError: --window needs exactly 3 values, got '4,4'",
                3,
            ),
            (
                ["compute", "v.npy", "--factors", "2,1"],
                "ScheduleInfeasibleError: factors must be strictly increasing and >= 1, got (2, 1)",
                3,
            ),
            (
                ["compute", "v.npy", "--window", "1,4,4"],
                "ScheduleInfeasibleError: window dims must be >= 2, got (1, 4, 4)",
                3,
            ),
            (
                ["batch", "m.csv", "out.csv", "--stride", "0,1,1"],
                "ScheduleInfeasibleError: stride dims must be >= 1, got (0, 1, 1)",
                3,
            ),
            (
                ["synth", "o.npy", "--kind", "constant", "--shape", "1,2"],
                "InvalidSpecError: --shape needs exactly 3 values, got '1,2'",
                4,
            ),
            (
                ["synth", "o.npy", "--kind", "constant", "--shape", "4,4,4", "--seed", "-1"],
                "InvalidSpecError: rng_seed must be >= 0, got -1",
                4,
            ),
            (
                ["synth", "missing/o.npy", "--kind", "constant", "--shape", "4,4,4"],
                "IoFailureError: missing/o.npy: [Errno 2] No such file or directory: 'missing/o.npy'",
                2,
            ),
        ],
        ids=["factors_not_ints", "window_of_two", "factors_decreasing", "window_one", "stride_zero", "shape_of_two",
             "negative_seed", "synth_missing_directory"],
    )
    def test_one_line_and_exit_code(self, tmp_path, capsys, monkeypatch, argv, line, code):
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *argv) == (code, "", line + "\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, line",
        [
            (["--report", "missing/r.json"], "FileNotFoundError: [Errno 2] No such file or directory: 'missing/r.json'"),
            (["--emit-maps", "v.npy/maps"], "NotADirectoryError: [Errno 20] Not a directory: 'v.npy/maps'"),
            (
                ["--emit-maps", "maps", "--report", "missing/r.json"],
                "FileNotFoundError: [Errno 2] No such file or directory: 'missing/r.json'",
            ),
            (["--emit-maps", "maps", "--report", "rdir"], "IsADirectoryError: [Errno 21] Is a directory: 'rdir'"),
            # None: the line open() gives for the --report path
            (["--emit-maps", "maps", "--report", "x" * 300 + ".json"], None),
        ],
        ids=["report_missing_directory", "maps_under_a_file", "report_missing_directory_with_maps",
             "report_is_a_directory_with_maps", "report_name_too_long_with_maps"],
    )
    def test_compute_output_that_cannot_be_written_prints_no_profile(self, tmp_path, capsys, monkeypatch, flags, line):
        monkeypatch.chdir(tmp_path)
        line = line or open_error(flags[-1])
        write_phantom(tmp_path / "v.npy", shape=(8, 8, 8))
        (tmp_path / "rdir").mkdir()
        assert run_cli(capsys, "compute", "v.npy", "--factors", "1,2", *flags) == (2, "", line + "\n")
        assert sorted(tmp_path.iterdir()) == [tmp_path / "rdir", tmp_path / "v.npy"]

    @pytest.mark.parametrize("mode", ["algorithm1", "block-cascade", "sliding-cascade"])
    def test_compute_map_name_too_long_reads_no_volume(self, tmp_path, capsys, monkeypatch, mode):
        # A 245-character stem makes map names longer than the file system
        # takes. algorithm1 opens each map name before the volume is read,
        # so it exits 2 with the error open() gives and writes nothing; the
        # cascades write no maps, so they run.
        read, ran = msc3d.cli.read_npy, []
        monkeypatch.setattr(msc3d.cli, "read_npy", lambda path: ran.append(Path(path).name) or read(path))
        monkeypatch.chdir(tmp_path)
        stem = "v" * 245
        write_phantom(tmp_path / f"{stem}.npy", shape=(8, 8, 8))
        argv = ["compute", f"{stem}.npy", "--mode", mode, "--factors", "1,2", "--emit-maps", "maps", "--report", "r.json"]
        code, out, err = run_cli(capsys, *argv)
        assert os.listdir("maps") == []
        if mode == "algorithm1":
            assert (code, out, err) == (2, "", open_error(f"maps/{stem}_scale0_map.npy") + "\n")
            assert ran == []
            assert not os.path.exists("r.json")
        else:
            assert (code, err) == (0, "")
            assert ran == [f"{stem}.npy"]

    def test_batch_output_in_missing_directory_runs_no_subject(self, tmp_path, capsys, monkeypatch):
        read, ran = msc3d.cli.read_npy, []
        monkeypatch.setattr(msc3d.cli, "read_npy", lambda path: ran.append(Path(path).name) or read(path))
        monkeypatch.chdir(tmp_path)
        write_cohort(tmp_path, n=2, shape=(8, 8, 8))
        held = sorted(tmp_path.iterdir())
        line = "FileNotFoundError: [Errno 2] No such file or directory: 'missing/out.csv'\n"
        argv = ["batch", "manifest.csv", "missing/out.csv", "--factors", "1,2", "--jobs", "1"]
        assert run_cli(capsys, *argv) == (2, "", line)
        assert ran == []
        assert sorted(tmp_path.iterdir()) == held
        # The same batch into an existing directory runs both subjects.
        assert run_cli(capsys, "batch", "manifest.csv", "out.csv", *argv[3:])[0] == 0
        assert ran == ["s0.npy", "s1.npy"]

    @pytest.mark.parametrize("target", ["s0.npy/out.csv", "s0.npy/sub/out.csv"], ids=["under_a_file", "below_a_file"])
    def test_batch_output_under_a_file_forks_no_child(self, tmp_path, capsys, monkeypatch, target):
        # The error is the one open() gives for the same path, and it comes
        # before any subject: --jobs 2 would otherwise fork a child.
        monkeypatch.setattr(msc3d.runner, "_start_child", forbidden_start_child)
        monkeypatch.chdir(tmp_path)
        write_cohort(tmp_path, n=2, shape=(8, 8, 8))
        held = sorted(tmp_path.iterdir())
        with pytest.raises(NotADirectoryError) as opened:
            open(target, "w")
        argv = ["batch", "manifest.csv", target, "--factors", "1,2", "--jobs", "2"]
        assert run_cli(capsys, *argv) == (2, "", f"NotADirectoryError: {opened.value}\n")
        assert str(opened.value) == f"[Errno 20] Not a directory: '{target}'"
        assert sorted(tmp_path.iterdir()) == held

    def test_batch_output_that_is_a_directory_reads_no_subject(self, tmp_path, capsys, monkeypatch):
        read, ran = msc3d.cli.read_npy, []
        monkeypatch.setattr(msc3d.cli, "read_npy", lambda path: ran.append(Path(path).name) or read(path))
        monkeypatch.setattr(msc3d.runner, "_start_child", forbidden_start_child)
        monkeypatch.chdir(tmp_path)
        write_cohort(tmp_path, n=2, shape=(8, 8, 8))
        (tmp_path / "rdir").mkdir()
        held = sorted(tmp_path.iterdir())
        with pytest.raises(IsADirectoryError) as opened:
            open("rdir", "w")
        argv = ["batch", "manifest.csv", "rdir", "--factors", "1,2", "--jobs", "2"]
        assert run_cli(capsys, *argv) == (2, "", f"IsADirectoryError: {opened.value}\n")
        assert str(opened.value) == "[Errno 21] Is a directory: 'rdir'"
        assert ran == []
        assert sorted(tmp_path.iterdir()) == held


    def test_batch_sidecar_that_is_a_directory_reads_no_subject(self, tmp_path, capsys, monkeypatch):
        # A batch writes or removes OUT.errors.csv after its last subject,
        # so a directory there is reported before the first one.
        read, ran = msc3d.cli.read_npy, []
        monkeypatch.setattr(msc3d.cli, "read_npy", lambda path: ran.append(Path(path).name) or read(path))
        monkeypatch.setattr(msc3d.runner, "_start_child", forbidden_start_child)
        monkeypatch.chdir(tmp_path)
        write_cohort(tmp_path, n=2, shape=(8, 8, 8))
        (tmp_path / "out.errors.csv").mkdir()
        held = sorted(tmp_path.iterdir())
        with pytest.raises(IsADirectoryError) as opened:
            open("out.errors.csv", "w")
        argv = ["batch", "manifest.csv", "out.csv", "--factors", "1,2", "--jobs", "2"]
        assert run_cli(capsys, *argv) == (2, "", f"IsADirectoryError: {opened.value}\n")
        assert ran == []
        assert sorted(tmp_path.iterdir()) == held

    @pytest.mark.parametrize(
        "output, refused",
        [("x" * 300 + ".csv", "x" * 300 + ".csv"), ("x" * 246 + ".csv", "x" * 246 + ".errors.csv")],
        ids=["output_name_too_long", "sidecar_name_too_long"],
    )
    def test_batch_output_name_too_long_reads_no_subject(self, tmp_path, capsys, monkeypatch, output, refused):
        # A name longer than the file system takes lies in a directory that
        # exists, so only opening it finds the refusal. OUT.csv and
        # OUT.errors.csv are both opened before the first subject.
        read, ran = msc3d.cli.read_npy, []
        monkeypatch.setattr(msc3d.cli, "read_npy", lambda path: ran.append(Path(path).name) or read(path))
        monkeypatch.setattr(msc3d.runner, "_start_child", forbidden_start_child)
        monkeypatch.chdir(tmp_path)
        write_cohort(tmp_path, n=2, shape=(8, 8, 8))
        held = sorted(tmp_path.iterdir())
        line = open_error(refused)
        argv = ["batch", "manifest.csv", output, "--factors", "1,2", "--jobs", "2"]
        assert run_cli(capsys, *argv) == (2, "", line + "\n")
        assert ran == []
        assert sorted(tmp_path.iterdir()) == held


class TestBatch:
    def test_three_subjects_18_rows(self, tmp_path, capsys):
        manifest = write_cohort(tmp_path, n=3, shape=(36, 36, 36))
        out_csv = tmp_path / "cohort.csv"
        code, _, _ = run_cli(capsys, "batch", str(manifest), str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "subject_id,scale_index,scale_factor,complexity"
        assert len(lines) == 1 + 18

    @pytest.mark.parametrize("bad", sorted(BAD_CSV_TAILS))
    def test_unreadable_manifest_text_exit_2(self, tmp_path, capsys, bad):
        manifest = write_cohort(tmp_path, n=2)
        message = spoil_csv(manifest, bad)
        out_csv = tmp_path / "cohort.csv"
        code, out, err = run_cli(capsys, "batch", str(manifest), str(out_csv), "--jobs", "1")
        assert (code, out, err.splitlines()) == (2, "", [message])
        assert not out_csv.exists()

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bool_dim_in_header_goes_to_sidecar(self, tmp_path, capsys, jobs):
        manifest = write_cohort(tmp_path, n=3, shape=(12, 12, 12))
        s1 = tmp_path / "s1.npy"
        s1.write_bytes(make_npy_bytes(shape=(2, True, 2), payload=bytes(32)))
        out_csv = tmp_path / "cohort.csv"
        code, _, _ = run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2", "--jobs", jobs)
        assert code == 0
        rows = out_csv.read_text().strip().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["s0", "s0", "s2", "s2"]
        errors = (tmp_path / "cohort.errors.csv").read_text().splitlines()
        assert errors == ["subject_id,error,message", f"s1,HeaderMalformedError,{s1}: shape must be a tuple of ints"]

    def test_header_cut_short_goes_to_sidecar(self, tmp_path, capsys):
        manifest = write_cohort(tmp_path, n=3, shape=(12, 12, 12))
        blob, message = MALFORMED_HEADERS["cut_in_version"]
        s1 = tmp_path / "s1.npy"
        s1.write_bytes(blob)
        out_csv = tmp_path / "cohort.csv"
        code, _, _ = run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2", "--jobs", "1")
        assert code == 0
        rows = out_csv.read_text().strip().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["s0", "s0", "s2", "s2"]
        errors = (tmp_path / "cohort.errors.csv").read_text().splitlines()
        assert errors == ["subject_id,error,message", f"s1,HeaderMalformedError,{s1}: {message}"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_clean_rerun_removes_the_stale_sidecar(self, tmp_path, capsys, jobs):
        manifest = write_cohort(tmp_path, n=2, shape=(8, 8, 8))
        good = (tmp_path / "s1.npy").read_bytes()
        (tmp_path / "s1.npy").write_bytes(b"garbage")
        out_csv = tmp_path / "cohort.csv"
        sidecar = tmp_path / "cohort.errors.csv"
        argv = ["batch", str(manifest), str(out_csv), "--factors", "1,2", "--jobs", jobs]
        assert run_cli(capsys, *argv) == (0, "", f"warning: 1 subject(s) failed, see {sidecar}\n")
        assert sidecar.read_text().splitlines()[1].startswith("s1,MagicMismatchError")
        (tmp_path / "s1.npy").write_bytes(good)
        assert run_cli(capsys, *argv) == (0, "", "")
        assert not sidecar.exists()
        assert [row.split(",")[0] for row in out_csv.read_text().splitlines()[1:]] == ["s0", "s0", "s1", "s1"]

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sliding_step_whose_cube_overflows_sends_every_subject_to_sidecar(self, tmp_path, capsys, jobs):
        manifest = write_cohort(tmp_path, n=4, shape=(9, 9, 9))
        out_csv = tmp_path / "cohort.csv"
        side = 10**103
        argv = ["batch", str(manifest), str(out_csv), "--mode", "sliding-cascade", "--factors", f"1,{side}"]
        code, _, err = run_cli(capsys, *argv, "--jobs", jobs)
        sidecar = tmp_path / "cohort.errors.csv"
        assert (code, err) == (0, f"warning: 4 subject(s) failed, see {sidecar}\n")
        assert out_csv.read_text() == "subject_id,scale_index,scale_factor,complexity\n"
        message = f"factor {side}: window side {side} cubed overflows float64"
        assert sidecar.read_text().splitlines() == ["subject_id,error,message"] + [
            f"s{i},ScheduleInfeasibleError,{message}" for i in range(4)
        ]

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
        # The subjects the broken pool had not finished run again in fresh
        # one-worker pools, so only the subject that kills its worker is lost.
        manifest = write_cohort(tmp_path, n=12, shape=(12, 12, 12))
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
        assert err == f"warning: 1 subject(s) failed, see {sidecar}\n"
        assert lost == [["s3", "BrokenProcessPool"]]
        rows = out_csv.read_text().splitlines()[1:]
        assert rows == [row for row in ref_csv.read_text().splitlines()[1:] if row.split(",")[0] != "s3"]

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

    def test_failed_strict_run_leaves_an_earlier_run_as_it_was(self, tmp_path, capsys):
        # Opening OUT.csv and OUT.errors.csv before the first subject
        # truncates neither, and a strict run that fails writes neither.
        manifest = write_cohort(tmp_path, n=2, shape=(8, 8, 8))
        (tmp_path / "s1.npy").write_bytes(b"garbage")
        argv = ["batch", str(manifest), str(tmp_path / "cohort.csv"), "--factors", "1,2", "--jobs", "1"]
        assert run_cli(capsys, *argv)[0] == 0
        held = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert "cohort.errors.csv" in held
        assert run_cli(capsys, *argv, "--strict")[0] == 2
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == held

    def test_failed_strict_run_into_a_dangling_link_leaves_no_target(self, tmp_path, capsys, monkeypatch):
        # Checking out.csv before the first subject creates the link's
        # missing target; a strict run that then fails must not leave it.
        monkeypatch.chdir(tmp_path)
        write_cohort(tmp_path, n=2, shape=(8, 8, 8))
        (tmp_path / "s1.npy").write_bytes(b"garbage")
        os.symlink("target.csv", "out.csv")
        held = sorted(tmp_path.iterdir())
        argv = ["batch", "manifest.csv", "out.csv", "--factors", "1,2", "--jobs", "1", "--strict"]
        assert run_cli(capsys, *argv)[0] == 2
        assert sorted(tmp_path.iterdir()) == held
        assert not (tmp_path / "target.csv").exists()

    def test_clean_run_removes_a_dangling_sidecar_link_and_leaves_no_target(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_cohort(tmp_path, n=2, shape=(8, 8, 8))
        os.symlink("target.csv", "out.errors.csv")
        argv = ["batch", "manifest.csv", "out.csv", "--factors", "1,2", "--jobs", "1"]
        assert run_cli(capsys, *argv) == (0, "", "")
        assert not os.path.lexists("out.errors.csv")
        assert not (tmp_path / "target.csv").exists()

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

    @pytest.fixture
    def time_limit(self):
        """A batch that hangs fails its test after 60 s instead of stalling
        the suite; forked children do not inherit the alarm."""

        def expire(signum, frame):
            raise TimeoutError("the batch ran for over 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.fixture
    def started_children(self, monkeypatch):
        """The subjects of each child the batch forks, in fork order; the
        children are real."""
        start, shares = msc3d.runner._start_child, []

        def recording_start(run, tasks, share):
            shares.append([tasks[i][0] for i in share])
            return start(run, tasks, share)

        monkeypatch.setattr(msc3d.runner, "_start_child", recording_start)
        return shares

    @pytest.fixture
    def reads_by_process(self, monkeypatch, tmp_path):
        """Every volume read appends ``pid name`` to a log; calling the
        returned function reads the log into the names each process read,
        in order, and empties it."""
        read, log = msc3d.cli.read_npy, tmp_path / "reads.log"

        def logging_read(path):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {Path(path).stem}\n")
            return read(path)

        def by_process():
            names = {}
            for line in log.read_text().splitlines():
                pid, name = line.split()
                names.setdefault(int(pid), []).append(name)
            log.unlink()
            return names

        monkeypatch.setattr(msc3d.cli, "read_npy", logging_read)
        return by_process

    @pytest.fixture
    def child_sigkilled_on_s3(self, monkeypatch, reads_by_process):
        """A child process that starts reading ``s3.npy`` sends itself
        SIGKILL; the test process reads it as usual. Reads are logged by
        process, as ``reads_by_process`` gives them."""
        read, parent = msc3d.cli.read_npy, os.getpid()

        def killing_read(path):
            volume = read(path)
            if Path(path).name == "s3.npy" and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return volume

        monkeypatch.setattr(msc3d.cli, "read_npy", killing_read)
        return reads_by_process

    @pytest.fixture
    def heap_releases_and_forks(self, monkeypatch):
        """Every free-heap release and every fork of this process, in order,
        as ``"release"`` and ``"fork"``; both still happen."""
        release, fork, events = msc3d.runner._release_free_heap, os.fork, []

        def recording_release():
            events.append("release")
            release()

        def recording_fork():
            events.append("fork")
            return fork()

        monkeypatch.setattr(msc3d.runner, "_release_free_heap", recording_release)
        monkeypatch.setattr(msc3d.cli.os, "fork", recording_fork)
        return events

    @pytest.mark.usefixtures("time_limit")
    def test_heap_is_released_before_every_fork(self, tmp_path, capfd, child_sigkilled_on_s3, heap_releases_and_forks):
        # The fresh child that takes over the rest of a killed child's
        # share is forked from a released heap too.
        manifest = write_cohort(tmp_path, n=8, shape=(12, 12, 12))
        assert main(["batch", str(manifest), str(tmp_path / "j2.csv"), "--factors", "1,2", "--jobs", "2"]) == 0
        assert heap_releases_and_forks == ["release", "fork", "release", "fork"]
        assert sorted(child_sigkilled_on_s3().values()) == [["s0", "s2", "s4", "s6"], ["s1", "s3"], ["s5", "s7"]]
        heap_releases_and_forks.clear()
        assert main(["batch", str(manifest), str(tmp_path / "j3.csv"), "--factors", "1,2", "--jobs", "3"]) == 0
        assert heap_releases_and_forks == ["release", "fork", "release", "fork"]

    @pytest.mark.parametrize("fork_less", [False, True], ids=["jobs_1", "without_fork"])
    def test_a_batch_that_forks_nothing_releases_nothing(self, tmp_path, capsys, monkeypatch, heap_releases_and_forks, fork_less):
        manifest = write_cohort(tmp_path, n=3, shape=(12, 12, 12))
        jobs = "1"
        if fork_less:
            monkeypatch.delattr(msc3d.cli.os, "fork")
            jobs = "2"
        out_csv = tmp_path / "cohort.csv"
        assert run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2", "--jobs", jobs) == (0, "", "")
        assert heap_releases_and_forks == []

    @pytest.mark.usefixtures("time_limit")
    def test_missing_malloc_trim_is_a_no_op(self, tmp_path, capsys, monkeypatch):
        # A C library without malloc_trim (musl, macOS) forks the same
        # children from an untrimmed heap, and the rows do not change.
        manifest = write_cohort(tmp_path, n=3, shape=(12, 12, 12))
        serial_csv = tmp_path / "serial.csv"
        assert run_cli(capsys, "batch", str(manifest), str(serial_csv), "--factors", "1,2", "--jobs", "1")[0] == 0
        opened = []

        class LibraryWithoutTrim:
            def __init__(self, name):
                opened.append(name)

        monkeypatch.setattr(msc3d.runner.ctypes, "CDLL", LibraryWithoutTrim)
        assert msc3d.runner._release_free_heap() is None
        assert opened == [None]
        for jobs in ("2", "3"):
            out_csv = tmp_path / f"j{jobs}.csv"
            assert run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2", "--jobs", jobs) == (0, "", "")
            assert out_csv.read_bytes() == serial_csv.read_bytes()
        assert opened == [None] * 4

    @pytest.mark.parametrize("jobs, shares", [("2", [["s1"]]), ("8", [["s1"], ["s2"]]), ("0", [["s1"], ["s2"]])])
    def test_child_count_is_one_less_than_the_processes(self, tmp_path, capsys, monkeypatch, started_children, jobs, shares):
        manifest = write_cohort(tmp_path, n=3, shape=(12, 12, 12))
        serial_csv = tmp_path / "serial.csv"
        code, _, _ = run_cli(capsys, "batch", str(manifest), str(serial_csv), "--factors", "1,2", "--jobs", "1")
        assert code == 0
        assert started_children == []
        monkeypatch.setattr(msc3d.cli.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        monkeypatch.setattr(msc3d.cli.os, "cpu_count", lambda: 64)
        out_csv = tmp_path / "cohort.csv"
        code, _, _ = run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2", "--jobs", jobs)
        assert code == 0
        assert started_children == shares
        assert out_csv.read_bytes() == serial_csv.read_bytes()

    @pytest.mark.parametrize("cpus, shares", [({0}, []), ({2, 5}, [["s1"]]), ({0, 1, 2, 3}, [["s1"], ["s2"]])])
    def test_jobs_0_counts_the_cpus_this_process_may_use(self, tmp_path, capsys, monkeypatch, started_children, cpus, shares):
        # --jobs 0 follows the affinity set, not the machine's CPU count;
        # one usable CPU runs the subjects in this process, with no child.
        monkeypatch.setattr(msc3d.cli.os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
        monkeypatch.setattr(msc3d.cli.os, "cpu_count", lambda: 64)
        manifest = write_cohort(tmp_path, n=3, shape=(12, 12, 12))
        code, _, _ = run_cli(capsys, "batch", str(manifest), str(tmp_path / "cohort.csv"), "--factors", "1,2", "--jobs", "0")
        assert code == 0
        assert started_children == shares

    @pytest.mark.usefixtures("time_limit")
    def test_child_killed_by_sigkill_loses_only_its_subject(self, tmp_path, capfd, child_sigkilled_on_s3):
        # The child running s1, s3, s5, s7 reports s1 and dies on s3; s3
        # goes to the sidecar and a fresh child runs s5 and s7.
        manifest = write_cohort(tmp_path, n=8, shape=(12, 12, 12))
        ref_csv = tmp_path / "ref.csv"
        assert main(["batch", str(manifest), str(ref_csv), "--factors", "1,2", "--jobs", "1"]) == 0
        child_sigkilled_on_s3()
        out_csv = tmp_path / "cohort.csv"
        capfd.readouterr()
        assert main(["batch", str(manifest), str(out_csv), "--factors", "1,2", "--jobs", "2"]) == 0
        sidecar = tmp_path / "cohort.errors.csv"
        assert capfd.readouterr().err == f"warning: 1 subject(s) failed, see {sidecar}\n"
        lost = [row.split(",")[:2] for row in sidecar.read_text().splitlines()[1:]]
        assert lost == [["s3", "BrokenProcessPool"]]
        rows = out_csv.read_text().splitlines()[1:]
        assert rows == [row for row in ref_csv.read_text().splitlines()[1:] if row.split(",")[0] != "s3"]
        reads = child_sigkilled_on_s3()
        assert reads.pop(os.getpid()) == ["s0", "s2", "s4", "s6"]
        assert sorted(reads.values()) == [["s1", "s3"], ["s5", "s7"]]

    @pytest.mark.usefixtures("time_limit")
    @pytest.mark.parametrize("refused", ["at_start", "after_a_kill"])
    def test_refused_fork_runs_the_share_here_and_blames_no_subject(self, tmp_path, capsys, monkeypatch, child_sigkilled_on_s3, refused):
        # A fork that fails with OSError leaves its share to this process:
        # all of it at the start, or the rest of a killed child's share.
        start = msc3d.runner._start_child
        starts = []

        def refusing_start(run, tasks, share):
            starts.append([tasks[i][0] for i in share])
            if refused == "at_start" or len(starts) > 1:
                raise OSError(11, "Resource temporarily unavailable")
            return start(run, tasks, share)

        manifest = write_cohort(tmp_path, n=8, shape=(12, 12, 12))
        serial_csv = tmp_path / "serial.csv"
        assert run_cli(capsys, "batch", str(manifest), str(serial_csv), "--factors", "1,2", "--jobs", "1")[0] == 0
        child_sigkilled_on_s3()
        monkeypatch.setattr(msc3d.runner, "_start_child", refusing_start)
        out_csv = tmp_path / "cohort.csv"
        assert run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2", "--jobs", "2")[0] == 0
        reads = child_sigkilled_on_s3()
        sidecar = tmp_path / "cohort.errors.csv"
        rows = serial_csv.read_text().splitlines()
        if refused == "at_start":
            assert starts == [["s1", "s3", "s5", "s7"]]
            assert reads == {os.getpid(): ["s0", "s2", "s4", "s6", "s1", "s3", "s5", "s7"]}
            assert not sidecar.exists()
            assert out_csv.read_text().splitlines() == rows
        else:
            assert starts == [["s1", "s3", "s5", "s7"], ["s5", "s7"]]
            assert reads.pop(os.getpid()) == ["s0", "s2", "s4", "s6", "s5", "s7"]
            assert list(reads.values()) == [["s1", "s3"]]
            assert [row.split(",")[:2] for row in sidecar.read_text().splitlines()[1:]] == [["s3", "BrokenProcessPool"]]
            assert out_csv.read_text().splitlines() == [r for r in rows if r.split(",")[0] != "s3"]

    def test_fork_the_os_refuses_runs_the_share_here(self, tmp_path, capsys, monkeypatch):
        # A full process table makes os.fork raise EAGAIN. The pipe made for
        # the child is closed, and its share runs in this process.
        def full_process_table():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        manifest = write_cohort(tmp_path, n=3, shape=(12, 12, 12))
        serial_csv = tmp_path / "serial.csv"
        assert run_cli(capsys, "batch", str(manifest), str(serial_csv), "--factors", "1,2", "--jobs", "1")[0] == 0
        monkeypatch.setattr(msc3d.cli.os, "fork", full_process_table)
        fds = Path("/proc/self/fd")
        held = len(os.listdir(fds)) if fds.is_dir() else None
        out_csv = tmp_path / "cohort.csv"
        assert run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2", "--jobs", "2") == (0, "", "")
        if held is not None:
            assert len(os.listdir(fds)) == held
        assert not (tmp_path / "cohort.errors.csv").exists()
        assert out_csv.read_bytes() == serial_csv.read_bytes()

    @pytest.mark.usefixtures("time_limit")
    def test_results_larger_than_a_pipe_holds(self, tmp_path, capsys):
        # Each subject id is 70,000 characters, so each result a child
        # sends is larger than a 64 KiB pipe, and the child blocks on it
        # until this process, busy with its own subjects, drains the pipe.
        ids = [f"s{i}" + "x" * 70_000 for i in range(6)]
        lines = ["subject_id,volume_path,age_years"]
        for i, sid in enumerate(ids):
            write_phantom(tmp_path / f"s{i}.npy", shape=(12, 12, 12), seed=100 + i)
            lines.append(f"{sid},s{i}.npy,{50 + i}")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n")
        written = []
        for jobs in ("1", "2", "3"):
            out_csv = tmp_path / f"j{jobs}.csv"
            assert run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2", "--jobs", jobs) == (0, "", "")
            written.append(out_csv.read_bytes())
        assert written[0] == written[1] == written[2]
        assert [row.split(b",")[0] for row in written[0].splitlines()[1::2]] == [sid.encode() for sid in ids]

    @pytest.mark.parametrize("jobs", ["1", "2", "0"])
    def test_header_only_manifest_writes_only_the_header(self, tmp_path, capsys, monkeypatch, jobs):
        monkeypatch.setattr(msc3d.runner, "_start_child", forbidden_start_child)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("subject_id,volume_path,age_years\n")
        out_csv = tmp_path / "cohort.csv"
        assert run_cli(capsys, "batch", str(manifest), str(out_csv), "--jobs", jobs) == (0, "", "")
        assert out_csv.read_text() == "subject_id,scale_index,scale_factor,complexity\n"
        assert sorted(tmp_path.iterdir()) == [out_csv, manifest]

    def test_without_fork_every_subject_runs_here(self, tmp_path, capsys, monkeypatch, reads_by_process):
        manifest = write_cohort(tmp_path, n=3, shape=(12, 12, 12))
        serial_csv = tmp_path / "serial.csv"
        assert run_cli(capsys, "batch", str(manifest), str(serial_csv), "--factors", "1,2", "--jobs", "1")[0] == 0
        reads_by_process()
        monkeypatch.delattr(msc3d.cli.os, "fork")
        monkeypatch.setattr(msc3d.runner, "_start_child", forbidden_start_child)
        out_csv = tmp_path / "cohort.csv"
        assert run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2", "--jobs", "2")[0] == 0
        assert reads_by_process() == {os.getpid(): ["s0", "s1", "s2"]}
        assert out_csv.read_bytes() == serial_csv.read_bytes()

    @pytest.mark.usefixtures("time_limit")
    def test_no_child_outlives_the_batch(self, tmp_path, capsys, monkeypatch):
        # After a batch that succeeds, one that fails under --strict, and
        # one whose own subject raises while a child is still busy, this
        # process has no child left, running or unreaped.
        def no_child_left():
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

        manifest = write_cohort(tmp_path, n=4, shape=(12, 12, 12))
        out_csv = tmp_path / "cohort.csv"
        flags = ["--factors", "1,2", "--jobs", "2"]
        assert run_cli(capsys, "batch", str(manifest), str(out_csv), *flags)[0] == 0
        no_child_left()
        (tmp_path / "s1.npy").write_bytes(b"garbage")
        assert run_cli(capsys, "batch", str(manifest), str(tmp_path / "strict.csv"), *flags, "--strict")[0] == 2
        no_child_left()
        read, parent = msc3d.cli.read_npy, os.getpid()

        def stalling_read(path):
            if Path(path).name == "s2.npy" and os.getpid() == parent:
                raise RuntimeError("the caller fails on s2")
            if Path(path).name == "s3.npy" and os.getpid() != parent:
                time.sleep(30)
            return read(path)

        monkeypatch.setattr(msc3d.cli, "read_npy", stalling_read)
        with pytest.raises(RuntimeError, match="the caller fails on s2"):
            main(["batch", str(manifest), str(tmp_path / "raised.csv"), *flags])
        no_child_left()

    @pytest.mark.usefixtures("time_limit")
    def test_each_process_runs_on_its_own_cpu(self, tmp_path, capsys, monkeypatch):
        # Every volume read logs the reading process and its affinity set.
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        if len(cpus) < 2:
            pytest.skip("needs an affinity set of at least 2 CPUs")
        read, log = msc3d.cli.read_npy, tmp_path / "cpus.log"

        def logging_read(path):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {json.dumps(sorted(os.sched_getaffinity(0)))}\n")
            return read(path)

        monkeypatch.setattr(msc3d.cli, "read_npy", logging_read)
        manifest = write_cohort(tmp_path, n=4, shape=(12, 12, 12))
        assert run_cli(capsys, "batch", str(manifest), str(tmp_path / "j2.csv"), "--factors", "1,2", "--jobs", "2")[0] == 0
        sets = {}
        for line in log.read_text().splitlines():
            pid, cpu_set = line.split(" ", 1)
            sets.setdefault(int(pid), []).append(json.loads(cpu_set))
        assert sets.pop(os.getpid()) == [cpus[:1]] * 2
        assert list(sets.values()) == [[cpus[1:2]] * 2]
        assert sorted(os.sched_getaffinity(0)) == cpus

    @pytest.mark.usefixtures("time_limit")
    def test_affinity_is_restored_after_every_batch(self, tmp_path, capsys, monkeypatch):
        # After a batch that succeeds, one that fails under --strict, and
        # one whose own subject raises, this process's affinity set is the
        # one it had before.
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("os.sched_setaffinity is missing")
        held = os.sched_getaffinity(0)
        manifest = write_cohort(tmp_path, n=4, shape=(12, 12, 12))
        flags = ["--factors", "1,2", "--jobs", "2"]
        assert run_cli(capsys, "batch", str(manifest), str(tmp_path / "cohort.csv"), *flags)[0] == 0
        assert os.sched_getaffinity(0) == held
        (tmp_path / "s1.npy").write_bytes(b"garbage")
        assert run_cli(capsys, "batch", str(manifest), str(tmp_path / "strict.csv"), *flags, "--strict")[0] == 2
        assert os.sched_getaffinity(0) == held
        read, parent = msc3d.cli.read_npy, os.getpid()

        def failing_read(path):
            if Path(path).name == "s2.npy" and os.getpid() == parent:
                raise RuntimeError("the caller fails on s2")
            return read(path)

        monkeypatch.setattr(msc3d.cli, "read_npy", failing_read)
        with pytest.raises(RuntimeError, match="the caller fails on s2"):
            main(["batch", str(manifest), str(tmp_path / "raised.csv"), *flags])
        assert os.sched_getaffinity(0) == held

    @pytest.mark.usefixtures("time_limit")
    @pytest.mark.parametrize(
        "jobs, affinity, placed",
        [
            ("2", "granted", [{1}, {0}, {0, 1}]),
            ("2", "refused", [{1}, {0}, {0, 1}]),
            ("2", "missing", []),
            ("3", "granted", []),
        ],
        ids=["jobs_2", "refused", "without_sched_setaffinity", "more_processes_than_cpus"],
    )
    def test_placement_on_two_cpus(self, tmp_path, capsys, monkeypatch, jobs, affinity, placed):
        # On 2 usable CPUs, --jobs 2 runs the child on the second CPU and
        # this process on the first, then gives this process back both.
        # A CPU the OS refuses, or an OS without sched_setaffinity, places
        # nothing, and 3 processes on 2 CPUs are left to the OS. The rows
        # are the --jobs 1 bytes either way.
        manifest = write_cohort(tmp_path, n=3, shape=(12, 12, 12))
        serial_csv = tmp_path / "serial.csv"
        assert run_cli(capsys, "batch", str(manifest), str(serial_csv), "--factors", "1,2", "--jobs", "1")[0] == 0
        calls = []

        def set_affinity(pid, cpus):
            calls.append(set(cpus))
            if affinity == "refused":
                raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))

        monkeypatch.setattr(msc3d.cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        if affinity == "missing":
            monkeypatch.delattr(msc3d.cli.os, "sched_setaffinity", raising=False)
        else:
            monkeypatch.setattr(msc3d.cli.os, "sched_setaffinity", set_affinity, raising=False)
        out_csv = tmp_path / "cohort.csv"
        assert run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2", "--jobs", jobs) == (0, "", "")
        assert calls == placed
        assert out_csv.read_bytes() == serial_csv.read_bytes()

    @pytest.mark.usefixtures("time_limit")
    @pytest.mark.parametrize(
        "count, shares", [(6, [["s1"], ["s2"], ["s3"]]), (2, [["s1", "s3"]]), (None, [])], ids=["6", "2", "none"]
    )
    def test_jobs_0_without_affinity_counts_the_cpus(self, tmp_path, capsys, monkeypatch, started_children, count, shares):
        # Where the OS keeps no affinity set, --jobs 0 runs one process per
        # CPU it counts, at most one per subject, and only this one when it
        # counts none.
        manifest = write_cohort(tmp_path, n=4, shape=(12, 12, 12))
        serial_csv = tmp_path / "serial.csv"
        assert run_cli(capsys, "batch", str(manifest), str(serial_csv), "--factors", "1,2", "--jobs", "1")[0] == 0
        monkeypatch.delattr(msc3d.cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(msc3d.cli.os, "cpu_count", lambda: count)
        out_csv = tmp_path / "cohort.csv"
        assert run_cli(capsys, "batch", str(manifest), str(out_csv), "--factors", "1,2", "--jobs", "0") == (0, "", "")
        assert started_children == shares
        assert out_csv.read_bytes() == serial_csv.read_bytes()

    @pytest.mark.usefixtures("time_limit")
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_runner_yields_every_index_once(self, jobs):
        got = list(msc3d.runner.results(lambda n: n * n, list(range(7)), jobs))
        assert sorted(got) == [(i, i * i) for i in range(7)]

    @pytest.mark.usefixtures("time_limit")
    def test_runner_yields_each_result_as_it_arrives(self, tmp_path):
        # The child's task 1 finishes only once the caller has been handed
        # task 2, which this process runs after task 0; a runner that held
        # its results back to the end would keep task 1 waiting for 10 s
        # and hand them over in index order.
        marker = tmp_path / "got_2"

        def run(i):
            stop = time.monotonic() + 10
            while i == 1 and not marker.exists() and time.monotonic() < stop:
                time.sleep(0.01)
            return i

        order = []
        for i, result in msc3d.runner.results(run, list(range(4)), 2):
            assert result == i
            order.append(i)
            if i == 2:
                marker.touch()
        assert order == [0, 2, 1, 3]

    @pytest.mark.usefixtures("time_limit")
    def test_runner_killed_child_yields_none_once(self):
        # The child running 1, 3, 5, 7 dies on 3; a fresh child runs 5 and 7.
        parent = os.getpid()

        def run(i):
            if i == 3 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        got = list(msc3d.runner.results(run, list(range(8)), 2))
        assert sorted(got, key=lambda pair: pair[0]) == [(i, None if i == 3 else i) for i in range(8)]

    @pytest.mark.usefixtures("time_limit")
    def test_runner_consumer_that_stops_early_leaves_no_child(self):
        # The children are still busy when the caller stops after the first
        # result; closing the generator kills and reaps them and gives this
        # process its affinity set back.
        parent = os.getpid()
        held = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None

        def run(i):
            if os.getpid() != parent:
                time.sleep(30)
            return i

        for i, result in msc3d.runner.results(run, list(range(4)), 2):
            break
        assert (i, result) == (0, 0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if held is not None:
            assert os.sched_getaffinity(0) == held

    @pytest.mark.parametrize("jobs", ["-3", "-1", "abc"])
    def test_jobs_below_zero_or_not_an_integer_exit_2(self, tmp_path, capsys, monkeypatch, jobs):
        monkeypatch.setattr(msc3d.runner, "_start_child", forbidden_start_child)
        manifest = write_cohort(tmp_path, n=2, shape=(8, 8, 8))
        out_csv = tmp_path / "cohort.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", str(manifest), str(out_csv), "--jobs", jobs])
        assert excinfo.value.code == 2
        assert f"argument --jobs: expected an integer >= 0, got '{jobs}'" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_mode_flag(self, tmp_path, capsys):
        manifest = write_cohort(tmp_path, n=1, shape=(16, 16, 16))
        out_csv = tmp_path / "cohort.csv"
        code, _, _ = run_cli(
            capsys, "batch", str(manifest), str(out_csv), "--mode", "sliding-cascade", "--factors", "1,2,4"
        )
        assert code == 0
        vol = read_npy(tmp_path / "s0.npy")
        prof = multiscale_run(vol, ScaleSchedule(factors=(1, 2, 4), mode="sliding_cascade")).profile
        lines = out_csv.read_text().strip().splitlines()[1:]
        assert float(lines[1].split(",")[3]) == prof[1].complexity

    @pytest.mark.parametrize("mode", sorted(MODE_FLAGS))
    def test_mixed_shapes_and_bad_files_match_fresh_computes(self, tmp_path, capsys, mode):
        # The buffers go from a large subject to a small one and back, past
        # a file cut short and one whose read fails on its last value.
        shapes = [(35, 41, 37), (12, 12, 12), (35, 41, 37), (35, 41, 37), (35, 41, 37), (12, 12, 12)]
        lines = ["subject_id,volume_path,age_years"]
        for i, shape in enumerate(shapes):
            write_phantom(tmp_path / f"s{i}.npy", shape=shape, seed=300 + i, level=1e3)
            lines.append(f"s{i},s{i}.npy,{50 + i}")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n")
        cut = tmp_path / "s2.npy"
        cut.write_bytes(cut.read_bytes()[:-8])
        spoiled = tmp_path / "s4.npy"
        spoiled.write_bytes(spoiled.read_bytes()[:-8] + np.array([np.nan]).tobytes())
        flags = ["--mode", mode, "--factors", "1,2,4"]
        written = []
        for jobs in ("1", "2"):
            out_csv = tmp_path / f"j{jobs}.csv"
            code, _, _ = run_cli(capsys, "batch", str(manifest), str(out_csv), *flags, "--jobs", jobs)
            assert code == 0
            written.append((out_csv.read_bytes(), out_csv.with_suffix(".errors.csv").read_bytes()))
        assert written[0] == written[1]
        errors = [row.split(",")[:2] for row in written[0][1].decode().splitlines()[1:]]
        assert errors == [["s2", "TruncatedError"], ["s4", "NonFiniteDataError"]]
        rows = [row.split(",") for row in written[0][0].decode().splitlines()[1:]]
        for sid in ("s0", "s1", "s3", "s5"):
            code, out, _ = run_cli(capsys, "compute", str(tmp_path / f"{sid}.npy"), *flags)
            assert code == 0
            assert [row[1:] for row in rows if row[0] == sid] == [line.split(",")[:3] for line in out.splitlines()]

    @pytest.mark.parametrize("mode", sorted(MODE_FLAGS))
    def test_no_subject_buffer_outlives_the_batch(self, tmp_path, capsys, monkeypatch, mode):
        # Each subject's volume, and the array that owns its memory, belong
        # to the call that runs it: nothing keeps them for the next subject.
        read, refs = msc3d.cli.read_npy, []

        def tracking_read(path):
            vol = read(path)
            owner = vol.data if vol.data.base is None else vol.data.base
            refs.extend([weakref.ref(vol), weakref.ref(owner)])
            return vol

        monkeypatch.setattr(msc3d.cli, "read_npy", tracking_read)
        manifest = write_cohort(tmp_path, n=2, shape=(12, 12, 12))
        out_csv = tmp_path / "cohort.csv"
        code, _, _ = run_cli(capsys, "batch", str(manifest), str(out_csv), "--mode", mode, "--factors", "1,2", "--jobs", "1")
        assert code == 0
        gc.collect()
        assert len(refs) == 4
        assert all(ref() is None for ref in refs)


class TestSlidingCascadeInTheReadBuffer:
    """``compute`` and ``batch`` hand the sliding cascade the buffer they
    read, so it makes its running field there, not in a copy; the results
    are those of the library's run on a read-only volume."""

    SCHEDULE = ScaleSchedule(factors=(1, 2, 4), mode="sliding_cascade")
    # Odd shapes, read as <f4 or <f8, on DC offsets of 1e3 to 1e6.
    VOLUMES = [
        ((13, 11, 9), "<f4", 1e3),
        ((20, 17, 23), "<f4", 1e6),
        ((9, 15, 7), "<f8", 1e5),
        ((17, 19, 13), "<f8", 1e4),
    ]
    FLAGS = ("--mode", "sliding-cascade", "--factors", "1,2,4")

    def write_volumes(self, tmp_path):
        """The volumes' paths, and a manifest listing them."""
        rng = np.random.default_rng(2026)
        paths = []
        lines = ["subject_id,volume_path,age_years"]
        for i, (shape, descr, offset) in enumerate(self.VOLUMES):
            paths.append(tmp_path / f"s{i}.npy")
            np.save(paths[-1], (offset + rng.random(shape)).astype(descr))
            lines.append(f"s{i},s{i}.npy,{50 + i}")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n")
        return paths, manifest

    def library_profile(self, path):
        return multiscale_run(read_npy(path), self.SCHEDULE).profile

    def test_compute_prints_the_library_run(self, tmp_path, capsys):
        paths, _ = self.write_volumes(tmp_path)
        for path in paths:
            profile = self.library_profile(path)
            want = "".join(f"{e.scale_index},{e.scale_factor},{e.complexity!r},{e.overlap!r}\n" for e in profile)
            assert run_cli(capsys, "compute", str(path), *self.FLAGS) == (0, want, "")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_rows_are_the_library_runs(self, tmp_path, capsys, jobs):
        paths, manifest = self.write_volumes(tmp_path)
        out_csv = tmp_path / "cohort.csv"
        assert run_cli(capsys, "batch", str(manifest), str(out_csv), *self.FLAGS, "--jobs", str(jobs)) == (0, "", "")
        want = ["subject_id,scale_index,scale_factor,complexity"] + [
            f"s{i},{e.scale_index},{e.scale_factor},{e.complexity!r}"
            for i, path in enumerate(paths)
            for e in self.library_profile(path)
        ]
        assert out_csv.read_text().splitlines() == want

    @pytest.mark.parametrize("shape", [(64, 64, 64), (61, 73, 61)], ids=str)
    def test_compute_peaks_under_one_and_a_half_volumes(self, tmp_path, capsys, shape):
        """The read volume is the one full-size field of a sliding compute:
        the run adds only slab buffers. A copy would make it two."""
        path = tmp_path / "v.npy"
        np.save(path, np.random.default_rng(3).random(shape))
        argv = ["compute", str(path), "--mode", "sliding-cascade"]
        assert run_cli(capsys, *argv)[0] == 0
        (code, _, err), peak = traced_peak(lambda: run_cli(capsys, *argv))
        assert (code, err) == (0, "")
        assert peak < 1.5 * math.prod(shape) * 8

    @pytest.mark.parametrize("shape", [(64, 64, 64), (61, 73, 61)], ids=str)
    def test_batch_subject_peaks_under_one_and_a_half_volumes(self, tmp_path, shape):
        path = tmp_path / "v.npy"
        np.save(path, np.random.default_rng(4).random(shape))
        task = ("v", str(path), ScaleSchedule(mode="sliding_cascade"))
        assert _batch_task(task)[1] == "ok"
        (_, status, _), peak = traced_peak(lambda: _batch_task(task))
        assert status == "ok"
        assert peak < 1.5 * math.prod(shape) * 8


class TestCorrelate:
    def build_noiseless_cohort(self, tmp_path, capsys, subject="s{}"):
        # complexity scales exactly with age^-0.25 via amplitude = age^-0.125
        ages = np.linspace(44.0, 90.0, 8)
        base = generate_phantom(PhantomSpec(kind="white_noise", shape=(12, 12, 12), level=1.0, rng_seed=9))
        manifest = tmp_path / "manifest.csv"
        with open(manifest, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["subject_id", "volume_path", "age_years"])
            for i, age in enumerate(ages):
                vol = Volume3D(float(age**-0.125) * base.data)
                write_npy(vol, tmp_path / f"s{i}.npy", "<f8")
                writer.writerow([subject.format(i), f"s{i}.npy", age])
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

    def test_scatter_name_too_long_writes_no_output(self, tmp_path, capsys):
        # PREFIX.csv and PREFIX.txt fit the file system's name limit and the
        # scatter names do not: every name is opened before the first write.
        manifest = write_cohort(tmp_path, n=4, shape=(8, 8, 8))
        batch_csv = tmp_path / "cohort.csv"
        assert run_cli(capsys, "batch", str(manifest), str(batch_csv), "--factors", "1,2", "--jobs", "1")[0] == 0
        held = sorted(tmp_path.iterdir())
        prefix = tmp_path / ("x" * 240)
        line = open_error(f"{prefix}_scale0_scatter.csv")
        assert run_cli(capsys, "correlate", str(batch_csv), str(manifest), str(prefix)) == (2, "", line + "\n")
        assert sorted(tmp_path.iterdir()) == held

    def test_subject_ids_with_commas(self, tmp_path, capsys):
        # csv.writer quotes these ids in the manifest and the batch CSV, so
        # both reach correlate through csv.reader
        outputs = []
        for subject in ("s{}", "s,{}"):
            work = tmp_path / str(len(outputs))
            work.mkdir()
            manifest, batch_csv = self.build_noiseless_cohort(work, capsys, subject)
            code, out, err = run_cli(capsys, "correlate", str(batch_csv), str(manifest), str(work / "out" / "corr"))
            assert (code, err) == (0, "")
            outputs.append((out, {f.name: f.read_bytes() for f in (work / "out").iterdir()}))
        assert batch_csv.read_text().splitlines()[1].startswith('"s,0",0,1,')
        assert len(outputs[1][1]) == 4
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("bad", sorted(BAD_CSV_TAILS))
    @pytest.mark.parametrize("spoiled", ["batch_csv", "manifest"])
    def test_unreadable_csv_text_exit_2(self, tmp_path, capsys, spoiled, bad):
        rows, ages = self.small_cohort()
        paths = dict(zip(("batch_csv", "manifest"), self.write_tables(tmp_path, rows, ages)))
        message = spoil_csv(paths[spoiled], bad)
        code, out, err = run_cli(capsys, "correlate", str(paths["batch_csv"]), str(paths["manifest"]), str(tmp_path / "c"))
        assert (code, out, err.splitlines()) == (2, "", [message])
        assert not (tmp_path / "c.csv").exists()

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
        for i, (sid, age) in enumerate(ages[20:]):  # the first 20 manifest subjects have no rows
            for k, factor in enumerate(factors):
                if i < 40 and k == i % len(factors):
                    continue  # 40 subjects each miss a row at one scale, 10 at each
                c = 0.0 if rng.random() < 0.05 else age ** (-0.3 * k) * math.exp(rng.normal(0.0, 0.1))
                batch_rows.append((sid, k, factor, c))
        # 15 subjects that the manifest does not name
        batch_rows += [(f"ghost{i:02d}", k, factor, 0.5) for i in range(15) for k, factor in enumerate(factors)]
        batch_rows = [batch_rows[i] for i in rng.permutation(len(batch_rows))]
        batch, manifest = self.write_tables(tmp_path, batch_rows, ages)
        code, out, err = run_cli(capsys, "correlate", str(batch), str(manifest), str(tmp_path / "corr"))
        assert code == 0
        assert err.count("has no rows in the batch CSV") == 20
        assert sorted(line for line in err.splitlines() if "not in the manifest" in line) == [
            f"warning: subject 'ghost{i:02d}' is not in the manifest; ignored" for i in range(15)
        ]
        assert "excluded (zero complexity)" in err

        pairs = [oracles.log_log_pairs_by_subject(batch_rows, ages, k) for k in range(len(factors))]
        fits = [pearson_regression([(log_age, log_c) for log_c, log_age in p]) for p in pairs]
        qs = benjamini_hochberg([fit.p for fit in fits])
        rows = [
            CorrelationRow(k, factor, len(p), fit.r, fit.p, q, fit.slope, fit.intercept)
            for k, (factor, p, fit, q) in enumerate(zip(factors, pairs, fits, qs))
        ]
        assert any(row.n < 280 for row in rows)
        # every scale keeps its own set of subjects
        assert len({tuple(log_age for _, log_age in p) for p in pairs}) == len(factors)
        assert (tmp_path / "corr.csv").read_bytes() == table_to_csv(rows).encode()
        assert (tmp_path / "corr.txt").read_bytes() == table_to_text(rows).encode()
        assert out == table_to_text(rows)
        for k, p in enumerate(pairs):
            scatter = "log_age,log_C\n" + "".join(f"{log_age!r},{log_c!r}\n" for log_c, log_age in p)
            assert (tmp_path / f"corr_scale{k}_scatter.csv").read_bytes() == scatter.encode()

    def regular_cohort(self, n=60, factors=(1, 2, 4, 8)):
        """Rows in the layout batch writes, some complexities zero, and the ages."""
        rng = np.random.default_rng(11)
        ages = [(f"sub{i:02d}", round(float(a), 2)) for i, a in enumerate(rng.uniform(45.0, 80.0, n))]
        rows = [
            (sid, k, factor, 0.0 if rng.random() < 0.05 else age ** (-0.3 * k) * math.exp(rng.normal(0.0, 0.1)))
            for sid, age in ages
            for k, factor in enumerate(factors)
        ]
        return rows, ages

    def test_body_row_order_gives_the_same_outputs(self, tmp_path, capsys, monkeypatch):
        # Reversed, the body is still in blocks of one row per scale, each
        # block in the other scale order; sorted by scale, it is read row by
        # row on the general path.
        rows, ages = self.regular_cohort()
        rows += [("ghost", k, factor, 0.5) for k, factor in enumerate((1, 2, 4, 8))]
        ages += [("late", 90.0)]
        calls = general_path_calls(monkeypatch)
        outputs = []
        for name, body in (("regular", rows), ("reversed", rows[::-1]), ("by_scale", sorted(rows, key=lambda r: r[1]))):
            work = tmp_path / name
            work.mkdir()
            batch, manifest = self.write_tables(work, body, ages)
            code, out, err = run_cli(capsys, "correlate", str(batch), str(manifest), str(work / "out" / "corr"))
            assert code == 0
            outputs.append((out, err, {f.name: f.read_bytes() for f in (work / "out").iterdir()}))
        assert calls == [tmp_path / "by_scale" / "cohort.csv"]
        assert outputs[0][1].splitlines()[:2] == [
            "warning: subject 'late' has no rows in the batch CSV",
            "warning: subject 'ghost' is not in the manifest; ignored",
        ]
        assert len(outputs[0][2]) == 6
        assert outputs[0] == outputs[1] == outputs[2]

    def test_manifest_in_another_order_matches_loop_oracle(self, tmp_path, capsys):
        factors = (1, 2, 4, 8)
        batch_rows, ages = self.regular_cohort(factors=factors)
        ages = [ages[i] for i in np.random.default_rng(12).permutation(len(ages))]
        batch, manifest = self.write_tables(tmp_path, batch_rows, ages)
        code, out, err = run_cli(capsys, "correlate", str(batch), str(manifest), str(tmp_path / "corr"))
        assert code == 0
        assert "excluded (zero complexity)" in err and "no row" not in err

        pairs = [oracles.log_log_pairs_by_subject(batch_rows, ages, k) for k in range(len(factors))]
        fits = [pearson_regression([(log_age, log_c) for log_c, log_age in p]) for p in pairs]
        qs = benjamini_hochberg([fit.p for fit in fits])
        rows = [
            CorrelationRow(k, factor, len(p), fit.r, fit.p, q, fit.slope, fit.intercept)
            for k, (factor, p, fit, q) in enumerate(zip(factors, pairs, fits, qs))
        ]
        assert (tmp_path / "corr.csv").read_bytes() == table_to_csv(rows).encode()
        assert out == (tmp_path / "corr.txt").read_text() == table_to_text(rows)
        for k, p in enumerate(pairs):
            scatter = "log_age,log_C\n" + "".join(f"{log_age!r},{log_c!r}\n" for log_c, log_age in p)
            assert (tmp_path / f"corr_scale{k}_scatter.csv").read_bytes() == scatter.encode()

    def test_missing_row_is_not_counted_as_zero_complexity(self, tmp_path, capsys):
        # all four subjects at scale 0, only a, b and c at scale 1
        ages = [(sid, 50.0 + 7.0 * i) for i, sid in enumerate("abcd")]
        rows = [(sid, 0, 1, age**-0.25) for sid, age in ages] + [(sid, 1, 2, 2.0 * age**-0.25) for sid, age in ages[:3]]
        batch, manifest = self.write_tables(tmp_path, rows, ages)
        code, _, err = run_cli(capsys, "correlate", str(batch), str(manifest), str(tmp_path / "c"))
        assert (code, err) == (0, "warning: scale 1: 1 subject(s) excluded (no row at this scale)\n")
        table = (tmp_path / "c.csv").read_text().strip().splitlines()
        assert [line.split(",")[2] for line in table[1:]] == ["4", "3"]

    def test_zero_and_missing_rows_are_counted_apart(self, tmp_path, capsys):
        ages = [(sid, 50.0 + 7.0 * i) for i, sid in enumerate("abcde")]
        rows = [(sid, 0, 1, age**-0.25) for sid, age in ages] + [(sid, 1, 2, 2.0 * age**-0.25) for sid, age in ages[:4]]
        rows[5] = ("a", 1, 2, 0.0)
        batch, manifest = self.write_tables(tmp_path, rows, ages)
        code, _, err = run_cli(capsys, "correlate", str(batch), str(manifest), str(tmp_path / "c"))
        assert (code, err.splitlines()) == (
            0,
            [
                "warning: scale 1: 1 subject(s) excluded (zero complexity)",
                "warning: scale 1: 1 subject(s) excluded (no row at this scale)",
            ],
        )

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
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            subprocess.run(
                [sys.executable, "-m", "msc3d.cli", "correlate", str(batch), str(manifest), str(out / "corr")],
                env=src_env(OPENBLAS_NUM_THREADS=threads),
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

    @pytest.mark.parametrize("usable", [(), ("s2",)], ids=["none", "one"])
    def test_scale_with_too_few_usable_subjects_skipped(self, tmp_path, capsys, usable):
        # scale 0 keeps its complexity only for the subjects in ``usable``
        rows, ages = self.small_cohort()
        rows = [(sid, k, factor, c if k or sid in usable else 0.0) for sid, k, factor, c in rows]
        batch, manifest = self.write_tables(tmp_path, rows, ages)
        code, _, err = run_cli(capsys, "correlate", str(batch), str(manifest), str(tmp_path / "c"))
        assert (code, err) == (0, "warning: scale 0 skipped (too few usable subjects)\n")
        table = (tmp_path / "c.csv").read_text().strip().splitlines()
        assert [line.split(",")[:3] for line in table[1:]] == [["1", "2", "4"]]

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

    def test_runs_with_scipy_unimportable(self, tmp_path, capsys):
        # None in sys.modules makes every import of scipy fail, so neither
        # importing msc3d nor correlate's p-values may need it
        rows, ages = self.small_cohort()
        batch, manifest = self.write_tables(tmp_path, rows, ages)
        code, out, err = run_cli(capsys, "correlate", str(batch), str(manifest), str(tmp_path / "inproc" / "c"))
        assert code == 0
        probe = "import sys; sys.modules['scipy'] = None; from msc3d.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-c", probe, "correlate", str(batch), str(manifest), str(tmp_path / "sub" / "c")],
            env=src_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, out, err)
        written = [{f.name: f.read_bytes() for f in (tmp_path / d).iterdir()} for d in ("inproc", "sub")]
        assert len(written[0]) == 4
        assert written[0] == written[1]

    def test_negative_complexity_exit_2(self, tmp_path, capsys):
        rows, ages = self.small_cohort()
        rows[3] = ("s1", 1, 2, -0.25)  # line 5
        batch, manifest = self.write_tables(tmp_path, rows, ages)
        code, out, err = run_cli(capsys, "correlate", str(batch), str(manifest), str(tmp_path / "c"))
        assert (code, out) == (2, "")
        assert err == f"MalformedRowError: {batch}: line 5: complexity '-0.25' is negative\n"
        assert not (tmp_path / "c.csv").exists()

    def test_negative_zero_complexity_is_excluded_as_zero(self, tmp_path, capsys):
        rows, ages = self.small_cohort()
        rows[3] = ("s1", 1, 2, -0.0)
        batch, manifest = self.write_tables(tmp_path, rows, ages)
        code, _, err = run_cli(capsys, "correlate", str(batch), str(manifest), str(tmp_path / "c"))
        assert code == 0
        assert err == "warning: scale 1: 1 subject(s) excluded (zero complexity)\n"

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

    def test_stripe_period_beyond_int64_is_one_stripe(self, tmp_path, capsys):
        # A period at least the x extent puts every plane in the first
        # stripe, which is zero, however large the period is.
        written = []
        for period in ("3", "99999999999999999999"):
            out = tmp_path / f"p{len(written)}.npy"
            argv = ["synth", str(out), "--kind", "axis_stripes", "--shape", "3,3,3", "--period", period]
            assert run_cli(capsys, *argv)[0] == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

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

    def test_range_beyond_float64_spans_the_gray_levels(self, tmp_path, capsys):
        # max - min of the x=2 plane overflows float64
        arr = np.zeros((4, 4, 4))
        arr[2, 0, 1] = -1.5e308
        arr[2, 3, 2] = 1.5e308
        path = tmp_path / "v.npy"
        write_npy(Volume3D(arr), path, "<f8")
        out = tmp_path / "v.pgm"
        assert run_cli(capsys, "slice", str(path), "x", str(out)) == (0, "", "")
        expected = np.full((4, 4), 128, dtype=np.uint8)  # (z, y)
        expected[1, 0] = 0
        expected[2, 3] = 255
        assert np.array_equal(self.read_pgm(out), expected)

    def test_missing_output_directory_exit_2(self, tmp_path, capsys):
        path = tmp_path / "v.npy"
        write_phantom(path, shape=(4, 4, 4))
        out = tmp_path / "missing" / "v.pgm"
        code, stdout, err = run_cli(capsys, "slice", str(path), "x", str(out))
        assert (code, stdout, err) == (2, "", f"InputError: {out}: [Errno 2] No such file or directory: '{out}'\n")

    def test_io_error_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "slice", str(tmp_path / "none.npy"), "z", str(tmp_path / "o.pgm"))
        assert code == 2

