"""Structural-complexity engine.

The central statistic for two same-lattice fields A, B is the overlap

    O(A, B) = <A*B> - (<A*A> + <B*B>) / 2 = -<(A - B)^2> / 2 <= 0,

whose magnitude measures how much A and B differ in mean-square terms.
Complexity at a scale is the magnitude of an overlap, so it is always
non-negative and vanishes exactly for fields that coarse-graining leaves
unchanged.

Three pipeline modes are implemented:

* ``algorithm1`` - for every factor, block-downsample the *original*
  volume, then sweep a strided window over the downsampled field and score
  each window by its three one-voxel shift overlaps. Produces a per-scale
  complexity map plus the map mean as the scale value.
* ``block_cascade`` - iteratively block-downsample the running field by
  each incremental factor and score the overlap between the field and its
  re-upsampled coarse version on the running lattice.
* ``sliding_cascade`` - same cascade, but the coarse field is a sliding
  cubic mean of the running field, so every step stays on the full lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coarse import block_downsample, block_upsample, sliding_mean
from .errors import ScheduleError, ShapeMismatchError
from .volume import Volume3D

MODES = ("algorithm1", "block_cascade", "sliding_cascade")


class ScheduleInfeasibleError(ScheduleError):
    """The scale schedule cannot run on the given volume."""


class WindowTooLargeError(ScheduleError):
    """Sweep window exceeds the (downsampled) volume extent."""


class WindowTooSmallError(ScheduleError):
    """Sweep window must be at least 2 per axis to admit shifted sub-blocks."""


class BlockTooSmallError(ScheduleError):
    """Shift overlaps need at least 2 voxels per axis."""


@dataclass(frozen=True)
class ScaleSchedule:
    """Ordered coarse-graining factors plus mode and sweep geometry."""

    factors: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
    mode: str = "algorithm1"
    window: tuple[int, int, int] = (4, 4, 4)
    stride: tuple[int, int, int] = (2, 2, 2)

    def __post_init__(self) -> None:
        factors = tuple(int(f) for f in self.factors)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "window", tuple(int(w) for w in self.window))
        object.__setattr__(self, "stride", tuple(int(s) for s in self.stride))
        if not factors:
            raise ValueError("schedule needs at least one factor")
        if factors[0] < 1 or any(b <= a for a, b in zip(factors, factors[1:])):
            raise ValueError(f"factors must be strictly increasing and >= 1, got {factors}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if len(self.window) != 3 or min(self.window) < 2:
            raise ValueError(f"window dims must be >= 2, got {self.window}")
        if len(self.stride) != 3 or min(self.stride) < 1:
            raise ValueError(f"stride dims must be >= 1, got {self.stride}")


@dataclass(frozen=True, eq=False)
class ComplexityMap:
    """Grid of per-window complexity values at one scale."""

    scale_factor: int
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"map values must be 3-D, got ndim={arr.ndim}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        nx, ny, nz = self.values.shape
        return (nx, ny, nz)


@dataclass(frozen=True)
class ProfileEntry:
    scale_index: int
    scale_factor: int
    complexity: float
    overlap: float


@dataclass(frozen=True)
class ComplexityProfile:
    """Per-scale complexity values for one volume."""

    subject_id: str
    per_scale: tuple[ProfileEntry, ...]

    def complexities(self) -> list[float]:
        return [e.complexity for e in self.per_scale]


@dataclass(frozen=True)
class ScaleReport:
    """What actually ran at one scale (for the JSON run report)."""

    scale_index: int
    scale_factor: int
    mode: str
    padded_shape: tuple[int, int, int] | None = None
    downsampled_shape: tuple[int, int, int] | None = None
    window_used: tuple[int, int, int] | None = None
    stride_used: tuple[int, int, int] | None = None
    grid_shape: tuple[int, int, int] | None = None
    degenerate_sweep: bool = False
    incremental_factor: int | None = None
    lattice_shape: tuple[int, int, int] | None = None

    def to_dict(self) -> dict:
        out = {"scale_index": self.scale_index, "scale_factor": self.scale_factor, "mode": self.mode}
        for key in (
            "padded_shape",
            "downsampled_shape",
            "window_used",
            "stride_used",
            "grid_shape",
            "incremental_factor",
            "lattice_shape",
        ):
            val = getattr(self, key)
            if val is not None:
                out[key] = list(val) if isinstance(val, tuple) else val
        if self.mode == "algorithm1":
            out["degenerate_sweep"] = self.degenerate_sweep
        return out


@dataclass(frozen=True)
class RunResult:
    profile: ComplexityProfile
    maps: tuple[ComplexityMap, ...]
    scale_reports: tuple[ScaleReport, ...] = field(default_factory=tuple)


def _difference_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """-<(a - b)^2>/2, never -0.0: the overlap in the form a DC offset cannot cancel."""
    d = a - b
    np.square(d, out=d)
    return -0.5 * float(d.mean()) + 0.0


def overlap(a: Volume3D, b: Volume3D) -> float:
    """Overlap <ab> - (<a^2> + <b^2>)/2 of two same-shape volumes; always <= 0.

    Evaluated as -<(a - b)^2>/2, which keeps full precision under a large
    common offset, where the expanded form cancels catastrophically.
    """
    if a.shape != b.shape:
        raise ShapeMismatchError(f"volume shapes differ: {a.shape} vs {b.shape}")
    return _difference_overlap(a.data, b.data)


def shift_overlap_axes(block: np.ndarray) -> tuple[float, float, float]:
    """Overlaps between a block and its one-voxel forward shifts per axis.

    The block is truncated by one voxel per axis to form the common core;
    each returned value is the overlap of the core with the slice shifted
    along that axis, i.e. minus half the mean squared forward difference.
    """
    b = np.asarray(block, dtype=np.float64)
    if b.ndim != 3:
        raise ValueError(f"block must be 3-D, got ndim={b.ndim}")
    if min(b.shape) < 2:
        raise BlockTooSmallError(f"block dims must be >= 2 per axis, got {b.shape}")
    core = b[:-1, :-1, :-1]
    return (
        _difference_overlap(b[1:, :-1, :-1], core),
        _difference_overlap(b[:-1, 1:, :-1], core),
        _difference_overlap(b[:-1, :-1, 1:], core),
    )


def complexity_map(
    u: Volume3D,
    window: tuple[int, int, int],
    stride: tuple[int, int, int],
    scale_factor: int = 1,
) -> ComplexityMap:
    """Sweep ``window`` at ``stride`` over ``u``; each cell is the mean shift
    overlap magnitude -(ox + oy + oz)/3 of its window, hence >= 0.

    Equivalent to calling :func:`shift_overlap_axes` per window, but computed
    from the three squared forward-difference fields so the sweep is a single
    vectorized box sum.
    """
    wx, wy, wz = window
    sx, sy, sz = stride
    if min(window) < 2:
        raise WindowTooSmallError(f"window dims must be >= 2, got {window}")
    if min(stride) < 1:
        raise ValueError(f"stride dims must be >= 1, got {stride}")
    if any(w > d for w, d in zip(window, u.shape)):
        raise WindowTooLargeError(f"window {window} does not fit in volume of shape {u.shape}")
    arr = u.data
    x, y, z = arr.shape
    dx = np.diff(arr, axis=0) ** 2
    dy = np.diff(arr, axis=1) ** 2
    dz = np.diff(arr, axis=2) ** 2
    sq = dx[:, : y - 1, : z - 1] + dy[: x - 1, :, : z - 1] + dz[: x - 1, : y - 1, :]
    core = (wx - 1, wy - 1, wz - 1)
    m = core[0] * core[1] * core[2]
    windows = sliding_window_view(sq, core)[::sx, ::sy, ::sz]
    cells = windows.sum(axis=(3, 4, 5)) / (6.0 * m)
    return ComplexityMap(scale_factor=scale_factor, values=cells)


def _incremental_factors(factors: tuple[int, ...]) -> list[int]:
    incs = []
    prev = 1
    for f in factors:
        if f % prev:
            raise ScheduleInfeasibleError(
                f"cascade modes need integer factor ratios; {f} is not a multiple of {prev}"
            )
        incs.append(f // prev)
        prev = f
    return incs


def _run_algorithm1(v: Volume3D, schedule: ScaleSchedule, subject_id: str) -> RunResult:
    # Complexity ignores a DC offset. Block means taken relative to the first
    # voxel round at the scale of the texture, not of the offset. Factor 1
    # keeps the volume as it is: its forward differences are already exact.
    ref = float(v.data.flat[0])
    entries = []
    maps = []
    reports = []
    for k, factor in enumerate(schedule.factors):
        down_shape = tuple(math.ceil(dim / factor) for dim in v.shape)
        if min(down_shape) < 2:
            raise ScheduleInfeasibleError(
                f"factor {factor} reduces volume {v.shape} below the 2-voxel minimum"
            )
        u = block_downsample(v, factor, offset=ref if factor > 1 else 0.0)
        w_used = tuple(max(2, min(w, d)) for w, d in zip(schedule.window, u.shape))
        s_used = tuple(max(1, min(s, d)) for s, d in zip(schedule.stride, u.shape))
        cmap = complexity_map(u, w_used, s_used, scale_factor=factor)
        c = float(np.mean(cmap.values))
        entries.append(ProfileEntry(k, factor, c, -c + 0.0))
        maps.append(cmap)
        reports.append(
            ScaleReport(
                scale_index=k,
                scale_factor=factor,
                mode=schedule.mode,
                padded_shape=tuple(d * factor for d in down_shape),
                downsampled_shape=down_shape,
                window_used=w_used,
                stride_used=s_used,
                grid_shape=cmap.grid_shape,
                degenerate_sweep=any(w == d for w, d in zip(w_used, u.shape)),
            )
        )
    profile = ComplexityProfile(subject_id=subject_id, per_scale=tuple(entries))
    return RunResult(profile=profile, maps=tuple(maps), scale_reports=tuple(reports))


def _run_cascade(v: Volume3D, schedule: ScaleSchedule, subject_id: str) -> RunResult:
    incs = _incremental_factors(schedule.factors)
    entries = []
    reports = []
    current = v
    for k, (factor, inc) in enumerate(zip(schedule.factors, incs)):
        if schedule.mode == "block_cascade":
            coarse = block_downsample(current, inc)
            recon = block_upsample(coarse, inc, current.shape)
            o = overlap(current, recon)
            nxt = coarse
        else:
            coarse = sliding_mean(current, inc)
            o = overlap(current, coarse)
            nxt = coarse
        entries.append(ProfileEntry(k, factor, abs(o), o))
        reports.append(
            ScaleReport(
                scale_index=k,
                scale_factor=factor,
                mode=schedule.mode,
                incremental_factor=inc,
                lattice_shape=current.shape,
            )
        )
        current = nxt
    profile = ComplexityProfile(subject_id=subject_id, per_scale=tuple(entries))
    return RunResult(profile=profile, maps=(), scale_reports=tuple(reports))


def multiscale_run(v: Volume3D, schedule: ScaleSchedule, subject_id: str = "") -> RunResult:
    """Run the full multiscale pipeline, keeping per-scale run metadata."""
    if schedule.mode == "algorithm1":
        return _run_algorithm1(v, schedule, subject_id)
    return _run_cascade(v, schedule, subject_id)


def multiscale_profile(v: Volume3D, schedule: ScaleSchedule) -> tuple[ComplexityProfile, list[ComplexityMap]]:
    """Per-scale complexity of ``v`` plus complexity maps (algorithm1 mode only)."""
    result = multiscale_run(v, schedule)
    return result.profile, list(result.maps)
