"""Seeded input generation for the msc3d benchmark workloads.

Everything msc3d sees is a file written here: ``.npy`` v1.0 ``<f4`` volumes,
manifest CSVs and a cohort batch CSV with a known log-log age slope. The same ``(workload, seed)`` always yields byte-identical files.
Only numpy is used, so generating inputs never runs msc3d code.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("cube128", "mni-mri", "cohort")
FACTORS = (1, 2, 4, 8, 16, 32)
# MRI-like DC offsets on top of unit texture; the top rungs expose the
# cascade overlap cancellation, so the ladder is part of the workload.
OFFSET_LADDER = (1e3, 1e4, 1e5, 1e6)
MNI_SHAPE = (121, 145, 121)  # MNI 1.5 mm grid: no factor divides it
CUBE_SHAPE = (128, 128, 128)  # every factor divides it
COHORT_SHAPE = (64, 64, 64)
CUBE_VOLUMES = 3
COHORT_SUBJECTS = 24
COHORT_COMPUTE_VOLUMES = 4  # one subject per offset rung
# Subjects in the cohort CSV that ``correlate`` reads: a single-site study next
# to the volume workloads, UK-Biobank scale for ``cohort``. A few subjects would
# leave the op to per-call file I/O, which no speed correction can steady.
CORRELATE_SUBJECTS = {"cube128": 2_000, "mni-mri": 2_000, "cohort": 20_000}
# ln C_k = a_k + b_k ln(age) + N(0, sigma^2); correlate must recover b_k.
TRUE_SLOPES = (0.8, 0.4, 0.0, -0.4, -0.8, -1.2)
TRUE_INTERCEPTS = (-9.0, -9.5, -10.0, -10.5, -11.0, -11.5)
LOG_NOISE_SIGMA = 0.05
# The slope's standard error is sigma / (sd(ln age) sqrt(n)), at most 0.007 for
# n >= 2000 and ages 45-80, so 0.05 is a 7-sigma tolerance: a miss means the
# statistics are wrong.
SLOPE_TOLERANCE = 0.05
AGE_RANGE = (45.0, 80.0)


@dataclass(frozen=True)
class Inputs:
    """Files for one workload plus what the checks need to know about them."""

    volumes: tuple[Path, ...]  # compute targets, one per round, cycled
    offsets: tuple[float, ...]  # DC offset added to each compute volume
    manifest: Path  # batch manifest
    n_subjects: int
    correlate_csv: Path  # cohort batch CSV with slopes TRUE_SLOPES
    correlate_manifest: Path
    correlate_subjects: int


def write_f4(path: Path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, np.ascontiguousarray(arr, dtype="<f4"), version=(1, 0))


def box_smooth(a: np.ndarray, side: int = 3) -> np.ndarray:
    """Cubic box mean of odd ``side`` with edge-replicated borders."""
    r = side // 2
    out = np.pad(a, r, mode="edge")
    for axis in range(3):
        c = np.cumsum(out, axis=axis)
        zero = np.zeros_like(np.take(c, [0], axis=axis))
        c = np.concatenate([zero, c], axis=axis)
        n = out.shape[axis] - side + 1
        out = np.take(c, np.arange(side, side + n), axis=axis) - np.take(c, np.arange(n), axis=axis)
    return out / side**3


def mri_like(rng: np.random.Generator, shape: tuple[int, int, int], offset: float) -> np.ndarray:
    """Box-smoothed unit texture plus a DC offset, rounded to float32."""
    return (box_smooth(rng.random(shape)) + offset).astype(np.float32)


def texture_of(volume: Path, offset: float) -> np.ndarray:
    """``v - offset`` for a written volume; exact in float32 for the ladder."""
    v = np.load(volume).astype(np.float64)
    tex = v - offset
    out = tex.astype(np.float32)
    if not np.array_equal(out.astype(np.float64), tex):
        raise ValueError(f"{volume}: v - {offset} is not exact in float32")
    return out


def _write_manifest(path: Path, rows: list[tuple[str, str, float]]) -> None:
    lines = ["subject_id,volume_path,age_years"]
    lines += [f"{sid},{vol},{age!r}" for sid, vol, age in rows]
    path.write_text("\n".join(lines) + "\n")


def _ages(rng: np.random.Generator, n: int) -> list[float]:
    return [round(float(a), 3) for a in rng.uniform(*AGE_RANGE, size=n)]


def _write_cohort_csv(rng: np.random.Generator, work: Path, n: int) -> tuple[Path, Path]:
    """Batch CSV of ``n`` subjects x 6 scales with known slopes, plus its manifest."""
    ages = _ages(rng, n)
    sids = [f"c{i:05d}" for i in range(n)]
    log_age = np.log(np.array(ages))
    noise = rng.normal(0.0, LOG_NOISE_SIGMA, size=(n, len(FACTORS)))
    log_c = np.array(TRUE_INTERCEPTS) + log_age[:, None] * np.array(TRUE_SLOPES) + noise
    lines = ["subject_id,scale_index,scale_factor,complexity"]
    for sid, row in zip(sids, np.exp(log_c).tolist()):
        lines += [f"{sid},{k},{f},{c!r}" for k, (f, c) in enumerate(zip(FACTORS, row))]
    csv_path = work / "cohort_batch.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    manifest = work / "cohort_ages.csv"
    _write_manifest(manifest, [(sid, f"{sid}.npy", age) for sid, age in zip(sids, ages)])
    return csv_path, manifest


def make_inputs(workload: str, seed: int, work: Path) -> Inputs:
    """Write the workload's files under ``work`` and describe them."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "cube128":
        arrays = [rng.random(CUBE_SHAPE, dtype=np.float32) for _ in range(CUBE_VOLUMES)]
        offsets = [0.0] * CUBE_VOLUMES
    elif workload == "mni-mri":
        offsets = list(OFFSET_LADDER)
        arrays = [mri_like(rng, MNI_SHAPE, off) for off in offsets]
    elif workload == "cohort":
        offsets = [OFFSET_LADDER[i % len(OFFSET_LADDER)] for i in range(COHORT_SUBJECTS)]
        arrays = [mri_like(rng, COHORT_SHAPE, off) for off in offsets]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    paths = []
    for i, arr in enumerate(arrays):
        path = work / f"s{i:03d}.npy"
        write_f4(path, arr)
        paths.append(path)
    ages = _ages(rng, len(paths))
    manifest = work / "manifest.csv"
    _write_manifest(manifest, [(p.stem, p.name, age) for p, age in zip(paths, ages)])
    n_compute = COHORT_COMPUTE_VOLUMES if workload == "cohort" else len(paths)
    n_cohort = CORRELATE_SUBJECTS[workload]
    csv_path, ages_path = _write_cohort_csv(rng, work, n_cohort)
    return Inputs(
        volumes=tuple(paths[:n_compute]),
        offsets=tuple(offsets[:n_compute]),
        manifest=manifest,
        n_subjects=len(paths),
        correlate_csv=csv_path,
        correlate_manifest=ages_path,
        correlate_subjects=n_cohort,
    )
