"""Acceptance suite: one test per criterion, each emitting a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

from __future__ import annotations

import contextlib
import os
import time
from pathlib import Path

import numpy as np
import pytest

from msc3d import (
    PhantomSpec,
    ScaleSchedule,
    Volume3D,
    benjamini_hochberg,
    generate_phantom,
    multiscale_run,
    overlap,
    pearson_regression,
    read_npy,
    write_npy,
)
from msc3d.cli import main

from . import oracles


@contextlib.contextmanager
def criterion(number: str, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        verdict = "SKIP" if type(exc).__name__ == "Skipped" else "FAIL"
        print(f"{verdict} criterion {number}: {label} ({exc})")
        raise
    print(f"PASS criterion {number}: {label} [{time.perf_counter() - started:.1f}s]")


def test_criterion_1_overlap_identity_suite():
    with criterion(1, "overlap identity on 1000 random pairs"):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(1000):
            dims = tuple(int(d) for d in rng.integers(2, 17, size=3))
            a = Volume3D(rng.random(dims))
            b = Volume3D(rng.random(dims))
            got = overlap(a, b)
            ref = -0.5 * float(np.mean((a.data - b.data) ** 2))
            assert abs(got - ref) <= 1e-12 * abs(ref)
            assert overlap(a, a) == 0.0
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"suite took {elapsed:.1f}s, budget is 10s"


def _oracle_phantoms():
    """20 seeded phantoms, default schedule feasible (every dim >= 33)."""
    specs = []
    shapes = [
        (33, 34, 35), (36, 36, 36), (40, 33, 37), (34, 44, 36), (38, 38, 38),
        (33, 33, 48), (42, 35, 39), (36, 41, 33), (44, 44, 44), (37, 40, 35),
        (33, 36, 42), (40, 40, 40), (35, 37, 33), (46, 34, 38),
    ]
    for i, shape in enumerate(shapes):
        specs.append(PhantomSpec(kind="white_noise", shape=shape, level=1.0, rng_seed=200 + i))
    specs.append(PhantomSpec(kind="smoothed_noise", shape=(36, 38, 34), level=2.0, rng_seed=300))
    specs.append(PhantomSpec(kind="smoothed_noise", shape=(48, 48, 48), level=3.0, rng_seed=301))
    specs.append(PhantomSpec(kind="axis_stripes", shape=(40, 36, 44), level=1.5, period=3))
    specs.append(PhantomSpec(kind="axis_stripes", shape=(33, 35, 37), level=1.0, period=1))
    specs.append(PhantomSpec(kind="constant", shape=(34, 34, 34), level=2.0))
    specs.append(PhantomSpec(kind="white_noise", shape=(64, 64, 64), level=1.0, rng_seed=400))
    return specs


def test_criterion_2_algorithm_oracle_equivalence():
    with criterion(2, "naive straight-line engine agreement on 20 phantoms"):
        started = time.perf_counter()
        schedule = ScaleSchedule()
        specs = _oracle_phantoms()
        assert len(specs) == 20
        for spec in specs:
            vol = generate_phantom(spec)
            run = multiscale_run(vol, schedule)
            ref_values, ref_maps = oracles.algorithm1(
                vol.data, schedule.factors, schedule.window, schedule.stride
            )
            for entry, ref in zip(run.profile, ref_values):
                assert abs(entry.complexity - ref) <= 1e-10
            for cmap, ref_map in zip(run.maps, ref_maps):
                assert cmap.grid_shape == ref_map.shape
                assert np.max(np.abs(cmap.values - ref_map)) <= 1e-10
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s, budget is 60s"


def test_criterion_3_analytic_stripe_and_constant():
    with criterion(3, "stripe C = 1/6 and constant C = 0 in every mode"):
        stripes = generate_phantom(PhantomSpec(kind="axis_stripes", shape=(16, 16, 16), level=1.0, period=1))
        prof = multiscale_run(stripes, ScaleSchedule(factors=(1,))).profile
        assert abs(prof[0].complexity - 1.0 / 6.0) <= 1e-12
        constant = generate_phantom(PhantomSpec(kind="constant", shape=(36, 36, 36), level=3.25))
        for mode in ("algorithm1", "block_cascade", "sliding_cascade"):
            prof = multiscale_run(constant, ScaleSchedule(mode=mode)).profile
            assert [e.complexity for e in prof] == [0.0] * 6


def test_criterion_4_invariance_suite():
    with criterion(4, "offset invariance (exact) and quadratic scaling (1e-10)"):
        rng = np.random.default_rng(404)
        schedule_factors = (1, 2, 4)
        for case in range(50):
            dims = tuple(int(rng.choice([8, 16, 32])) for _ in range(3))
            arr = np.floor(rng.random(dims) * 256.0) / 256.0
            shift = float(rng.integers(1, 33)) / 4.0
            gain = float(rng.uniform(0.5, 2.5))
            for mode in ("algorithm1", "block_cascade", "sliding_cascade"):
                sched = ScaleSchedule(factors=schedule_factors, mode=mode)
                base = multiscale_run(Volume3D(arr), sched).profile
                moved = multiscale_run(Volume3D(arr + shift), sched).profile
                assert [e.complexity for e in base] == [
                    e.complexity for e in moved
                ], f"offset invariance broke: case {case}, mode {mode}"
                scaled = multiscale_run(Volume3D(gain * arr), sched).profile
                for e_base, e_scaled in zip(base, scaled):
                    if e_base.complexity > 0.0:
                        rel = abs(e_scaled.complexity - gain**2 * e_base.complexity) / (
                            gain**2 * e_base.complexity
                        )
                        assert rel <= 1e-10, f"quadratic scaling broke: case {case}, mode {mode}"


def test_criterion_5_sliding_stability_beats_block():
    with criterion(5, "sliding cascade CoV < block cascade CoV at top scale"):
        started = time.perf_counter()
        c_block, c_slide = [], []
        for i in range(50):
            vol = generate_phantom(
                PhantomSpec(kind="white_noise", shape=(64, 64, 64), level=1.0, rng_seed=7000 + i)
            )
            pb = multiscale_run(vol, ScaleSchedule(mode="block_cascade")).profile
            ps = multiscale_run(vol, ScaleSchedule(mode="sliding_cascade")).profile
            c_block.append(pb[-1].complexity)
            c_slide.append(ps[-1].complexity)
        block = np.array(c_block)
        slide = np.array(c_slide)
        cov_block = block.std(ddof=1) / block.mean()
        cov_slide = slide.std(ddof=1) / slide.mean()
        assert cov_slide < cov_block, f"CoV sliding {cov_slide:.4f} vs block {cov_block:.4f}"
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"suite took {elapsed:.1f}s, budget is 300s"


def _build_aging_cohort(root: Path, n_subjects: int = 60):
    """Smoothed-noise phantoms whose smoothing radius grows with age.

    Each subject combines an age-independent fine texture (radius-1
    smoothed noise at low amplitude) with an age-coupled component whose
    radius rises from 16 to 40 voxels, so the age trend lives at coarse
    scales while fine scales stay pinned.
    """
    shape = (128, 128, 128)
    ages = np.linspace(44.0, 90.0, n_subjects)
    lines = ["subject_id,volume_path,age_years"]
    for i, age in enumerate(ages):
        radius = int(round(16 + (age - 44.0) / 46.0 * 24))
        fine = generate_phantom(
            PhantomSpec(kind="smoothed_noise", shape=shape, level=1.0, rng_seed=1000 + i)
        )
        coarse = generate_phantom(
            PhantomSpec(kind="smoothed_noise", shape=shape, level=float(radius), rng_seed=5000 + i)
        )
        vol = Volume3D(0.10 * fine.data + coarse.data)
        write_npy(vol, root / f"sub{i:03d}.npy", "<f4")
        lines.append(f"sub{i:03d},sub{i:03d}.npy,{float(age)!r}")
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def test_criterion_6_aging_trend_phantom_study(tmp_path):
    with criterion(6, "aging-trend cohort: r < -0.9, q < 0.01 at the two largest factors"):
        started = time.perf_counter()
        manifest = _build_aging_cohort(tmp_path)
        batch_csv = tmp_path / "cohort.csv"
        assert main(["batch", str(manifest), str(batch_csv)]) == 0
        prefix = tmp_path / "corr"
        assert main(["correlate", str(batch_csv), str(manifest), str(prefix)]) == 0
        rows = (tmp_path / "corr.csv").read_text().strip().splitlines()
        assert rows[0] == "scale_index,scale_factor,n,r,p,q_fdr,slope,intercept"
        by_scale = {}
        for line in rows[1:]:
            parts = line.split(",")
            by_scale[int(parts[0])] = {"r": float(parts[3]), "q": float(parts[5])}
        assert set(by_scale) == set(range(6))
        for k in (4, 5):
            assert by_scale[k]["r"] < -0.9, f"scale {k}: r = {by_scale[k]['r']:.3f}"
            assert by_scale[k]["q"] < 0.01, f"scale {k}: q = {by_scale[k]['q']:.3g}"
        strongest = max(by_scale, key=lambda k: abs(by_scale[k]["r"]))
        assert strongest in (4, 5), (
            f"strongest correlation at scale {strongest}, " +
            " ".join(f"r{k}={v['r']:+.3f}" for k, v in sorted(by_scale.items()))
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 600.0, f"study took {elapsed:.1f}s, budget is 600s"


def test_criterion_7_statistics_correctness():
    with criterion(7, "regression matches 50-digit oracle; BH matches hand cases"):
        rng = np.random.default_rng(707)
        for case in range(100):
            n = int(rng.integers(10, 301))
            slope = float(rng.uniform(-3.0, 3.0))
            noise = float(rng.uniform(0.4, 3.0))
            x = rng.normal(0.0, 1.5, n)
            y = slope * x + rng.normal(0.0, noise, n)
            pairs = list(zip(x.tolist(), y.tolist()))
            fit = pearson_regression(pairs)
            r_ref, slope_ref, intercept_ref, p_ref = oracles.pearson_mp(pairs)
            assert abs(fit.r - r_ref) <= 1e-9, f"case {case}: r"
            assert abs(fit.slope - slope_ref) <= 1e-9, f"case {case}: slope"
            assert abs(fit.intercept - intercept_ref) <= 1e-9, f"case {case}: intercept"
            assert abs(fit.p - p_ref) <= 1e-9 * max(p_ref, 1e-300), f"case {case}: p"

        assert benjamini_hochberg([0.01, 0.02, 0.03]) == pytest.approx([0.03, 0.03, 0.03])
        assert benjamini_hochberg([0.04, 0.01]) == pytest.approx([0.04, 0.02])
        for _ in range(1000):
            m = int(rng.integers(1, 30))
            ps = rng.random(m).tolist()
            qs = benjamini_hochberg(ps)
            order = np.argsort(ps, kind="stable")
            sorted_qs = [qs[i] for i in order]
            assert all(a <= b + 1e-15 for a, b in zip(sorted_qs, sorted_qs[1:]))
            assert all(q >= p for p, q in zip(ps, qs))


@pytest.fixture(scope="module")
def scaling_cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("scaling")
    lines = ["subject_id,volume_path,age_years"]
    for i in range(100):
        vol = generate_phantom(
            PhantomSpec(kind="white_noise", shape=(64, 64, 64), level=1.0, rng_seed=9000 + i)
        )
        write_npy(vol, root / f"s{i:03d}.npy", "<f4")
        lines.append(f"s{i:03d},s{i:03d}.npy,{50.0 + i * 0.3!r}")
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return root, manifest


def _timed_batch(manifest: Path, out_csv: Path, jobs: int) -> float:
    start = time.perf_counter()
    assert main(["batch", str(manifest), str(out_csv), "--jobs", str(jobs)]) == 0
    return time.perf_counter() - start


def test_criterion_8a_single_volume_performance(tmp_path):
    with criterion("8a", "128^3 float32 volume, default schedule, under 1s"):
        rng = np.random.default_rng(808)
        vol_path = tmp_path / "perf.npy"
        write_npy(Volume3D(rng.random((128, 128, 128))), vol_path, "<f4")
        read_npy(vol_path)  # warm the page cache
        timings = []
        for _ in range(3):
            start = time.perf_counter()
            vol = read_npy(vol_path)
            multiscale_run(vol, ScaleSchedule())
            timings.append(time.perf_counter() - start)
        best = min(timings)
        assert best < 1.0, f"single 128^3 volume took {best:.2f}s"


def test_criterion_8b_batch_scaling(scaling_cohort, tmp_path):
    with criterion("8b", "100-subject batch speedup >= 3x at 4 workers"):
        cpus = os.cpu_count() or 1
        if cpus < 4:
            pytest.skip(
                f"needs >= 4 CPUs to test the 3x-at-4-workers bar; host has {cpus}"
            )
        root, manifest = scaling_cohort
        serial = _timed_batch(manifest, tmp_path / "serial.csv", jobs=1)
        parallel = _timed_batch(manifest, tmp_path / "par4.csv", jobs=4)
        speedup = serial / parallel
        assert speedup >= 3.0, f"speedup at 4 workers: {speedup:.2f}x"


def test_criterion_9_batch_determinism(scaling_cohort, tmp_path):
    with criterion(9, "batch output byte-identical across runs and job counts"):
        root, manifest = scaling_cohort
        blobs = []
        for name, jobs in (("run1.csv", 1), ("run2.csv", 1), ("run8.csv", 8)):
            out = tmp_path / name
            assert main(["batch", str(manifest), str(out), "--jobs", str(jobs)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], "repeat run with --jobs 1 differed"
        assert blobs[0] == blobs[2], "--jobs 8 differed from --jobs 1"
