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

``algorithm1`` edge-pads the volume once, relative to its first voxel, and
builds its block means as a pyramid, each factor from the one before it.
Its sweep squares the forward differences in place and takes the strided
window sums one axis at a time. The cascades run on plain ndarrays,
relative to the first voxel, so a DC offset never enters their sums. The
block cascade holds no full-size field: each step walks its lattice in
cache-sized slabs of whole block rows along x, fills one slab buffer with
that part of the edge-padded relative field, writes the part's block means
and sums the squared residual the re-upsampled means leave on the slab.
The sliding cascade subtracts that voxel once and then runs every step on
two full-size buffers, the running field and its window means (written by
``coarse.window_means_into``), which swap roles after each step. Overlaps
square and sum their difference one slab at a time; every slab, here and
in ``coarse``, holds about ``coarse.SLAB_ELEMENTS`` float64 values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coarse
from .coarse import block_downsample, block_sums, edge_pad, window_means_into
from .errors import InputError, ScheduleError, ShapeMismatchError
from .volume import Volume3D

MODES = ("algorithm1", "block_cascade", "sliding_cascade")


class ScheduleInfeasibleError(ScheduleError):
    """The scale schedule cannot run on the given volume."""


class WindowTooLargeError(ScheduleError):
    """Sweep window exceeds the (downsampled) volume extent."""


class WindowTooSmallError(ScheduleError):
    """Sweep window must be at least 2 per axis to admit shifted sub-blocks."""


class ValueRangeError(InputError):
    """The volume's values overflow float64 in the complexity arithmetic."""


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

    @property
    def overlap(self) -> float:
        """The overlap whose magnitude is the complexity: <= 0, never -0.0."""
        return -self.complexity + 0.0


@dataclass(frozen=True)
class ComplexityProfile:
    """Per-scale complexity values for one volume."""

    per_scale: tuple[ProfileEntry, ...]


@dataclass(frozen=True)
class RunResult:
    """Profile, maps (algorithm1 only) and, per scale, the JSON record of what ran."""

    profile: ComplexityProfile
    maps: tuple[ComplexityMap, ...]
    scale_reports: tuple[dict, ...]


def _difference_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """-<(a - b)^2>/2, never -0.0: the overlap in the form a DC offset cannot cancel.

    The difference is squared and summed a slab of x-planes at a time, in
    one buffer of about ``coarse.SLAB_ELEMENTS`` elements that stays in
    cache between its subtract, square and sum, so no full-size temporary
    is made.
    """
    nx = a.shape[0]
    planes = max(1, coarse.SLAB_ELEMENTS // (a.size // nx))
    buf = np.empty((min(planes, nx),) + a.shape[1:])
    total = 0.0
    for start in range(0, nx, planes):
        d = buf[: min(planes, nx - start)]
        np.subtract(a[start : start + planes], b[start : start + planes], out=d)
        np.square(d, out=d)
        total += float(d.sum())
    return -0.5 * (total / a.size) + 0.0


def overlap(a: Volume3D, b: Volume3D) -> float:
    """Overlap <ab> - (<a^2> + <b^2>)/2 of two same-shape volumes; always <= 0.

    Evaluated as -<(a - b)^2>/2, which keeps full precision under a large
    common offset, where the expanded form cancels catastrophically.
    """
    if a.shape != b.shape:
        raise ShapeMismatchError(f"volume shapes differ: {a.shape} vs {b.shape}")
    return _difference_overlap(a.data, b.data)


def _squared_differences(arr: np.ndarray) -> np.ndarray:
    """dx^2 + dy^2 + dz^2 of the forward differences, on the core lattice
    that drops the last voxel of each axis.

    Each difference is a subtraction of two shifted runs of the flattened
    array, taken ``coarse.SLAB_ELEMENTS`` elements at a time; the core view
    skips the entries that straddle a row or a plane.
    """
    x, y, z = arr.shape
    flat = arr.ravel()
    plane = y * z
    n = (x - 1) * plane
    sq = np.empty(arr.shape)
    total = sq.reshape(-1)
    chunk = coarse.SLAB_ELEMENTS
    d = np.empty(min(n, chunk))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        part, diff = total[lo:hi], d[: hi - lo]
        np.subtract(flat[lo + plane : hi + plane], flat[lo:hi], out=part)
        np.square(part, out=part)
        for shift in (z, 1):
            np.subtract(flat[lo + shift : hi + shift], flat[lo:hi], out=diff)
            np.square(diff, out=diff)
            part += diff
    return sq[:-1, :-1, :-1]


def _strided_box_sums(arr: np.ndarray, box: tuple[int, ...], stride: tuple[int, ...]) -> np.ndarray:
    """Sums of ``arr`` over boxes of ``box`` voxels placed every ``stride``
    voxels, one axis at a time: per axis, ``box`` strided slices added up."""
    for axis, (b, s) in enumerate(zip(box, stride)):
        span = (arr.shape[axis] - b) // s * s + 1
        parts = [arr[(slice(None),) * axis + (slice(d, d + span, s),)] for d in range(b)]
        total = parts[0] + parts[1] if b > 1 else parts[0]
        for part in parts[2:]:
            total += part
        arr = total
    return arr


def complexity_map(
    u: Volume3D,
    window: tuple[int, int, int],
    stride: tuple[int, int, int],
    scale_factor: int = 1,
) -> ComplexityMap:
    """Sweep ``window`` at ``stride`` over ``u``; each cell is the mean shift
    overlap magnitude -(ox + oy + oz)/3 of its window, hence >= 0.

    A window's shift overlap along an axis is the overlap of its core, which
    drops the last voxel of each axis, with the core moved one voxel along
    that axis: minus half the mean squared forward difference. The three
    squared forward differences are summed into one field on the core
    lattice, and each cell sums the field over its window's core: strided
    slices added one axis at a time, so each axis costs ``window - 1`` adds
    of a field that the earlier axes have already thinned by their strides.
    """
    if min(window) < 2:
        raise WindowTooSmallError(f"window dims must be >= 2, got {window}")
    if min(stride) < 1:
        raise ValueError(f"stride dims must be >= 1, got {stride}")
    if any(w > d for w, d in zip(window, u.shape)):
        raise WindowTooLargeError(f"window {window} does not fit in volume of shape {u.shape}")
    core = tuple(w - 1 for w in window)
    cells = _strided_box_sums(_squared_differences(u.data), core, stride) / (6.0 * math.prod(core))
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


def _run_algorithm1(v: Volume3D, schedule: ScaleSchedule) -> RunResult:
    down_shapes = [tuple(math.ceil(dim / f) for dim in v.shape) for f in schedule.factors]
    for factor, down_shape in zip(schedule.factors, down_shapes):
        if min(down_shape) < 2:
            raise ScheduleInfeasibleError(
                f"factor {factor} reduces volume {v.shape} below the 2-voxel minimum"
            )
    # Complexity ignores a DC offset. Block means taken relative to the first
    # voxel round at the scale of the texture, not of the offset. Factor 1
    # keeps the volume as it is: its forward differences are already exact.
    # The relative copy is edge-padded once, for the largest block; padding
    # further leaves every earlier voxel as it is, so each factor's block
    # means are those of the volume padded for that factor alone.
    coarse_factors = [f for f in schedule.factors if f > 1]
    if coarse_factors:
        padded_shape = tuple(max(math.ceil(dim / f) * f for f in coarse_factors) for dim in v.shape)
        padded = Volume3D(edge_pad(v.data, padded_shape, float(v.data.flat[0])))
    level, base = v, 1
    entries = []
    maps = []
    reports = []
    for k, (factor, down_shape) in enumerate(zip(schedule.factors, down_shapes)):
        # Each level averages blocks of the level before it. The first coarse
        # factor, and one that is not a multiple of the level before it,
        # average blocks of the padded copy.
        if factor > 1 and (base == 1 or factor % base):
            level, base = padded, 1
        level = block_downsample(level, factor // base)
        base = factor
        cx, cy, cz = down_shape
        u = level if level.shape == down_shape else Volume3D(level.data[:cx, :cy, :cz])
        w_used = tuple(max(2, min(w, d)) for w, d in zip(schedule.window, u.shape))
        s_used = tuple(max(1, min(s, d)) for s, d in zip(schedule.stride, u.shape))
        cmap = complexity_map(u, w_used, s_used, scale_factor=factor)
        c = float(np.mean(cmap.values))
        entries.append(ProfileEntry(k, factor, c))
        maps.append(cmap)
        reports.append(
            {
                "scale_index": k,
                "scale_factor": factor,
                "mode": schedule.mode,
                "padded_shape": tuple(d * factor for d in down_shape),
                "downsampled_shape": down_shape,
                "window_used": w_used,
                "stride_used": s_used,
                "grid_shape": cmap.grid_shape,
                "degenerate_sweep": any(w == d for w, d in zip(w_used, u.shape)),
            }
        )
    return RunResult(ComplexityProfile(tuple(entries)), tuple(maps), tuple(reports))


def _block_step(current: np.ndarray, ref: float, inc: int) -> tuple[np.ndarray, float]:
    """Block means of ``current - ref`` and the overlap of ``current`` with
    their re-upsampled copy.

    The lattice, edge-padded to whole blocks, is walked in slabs of whole
    ``inc``-thick block rows along x, about ``coarse.SLAB_ELEMENTS``
    elements each, in one slab buffer, so no full-size field is made. Each
    slab is filled with its part of ``current - ref``, padded as
    ``edge_pad`` pads, and gives its rows of block means; the re-upsampled
    means then come off the slab in place, leaving the difference field,
    whose squared in-bounds part is summed. Every mean is that of the whole
    padded copy to the bit; only the order in which the squared differences
    are summed differs.
    """
    x, y, z = current.shape
    nx, ny, nz = (math.ceil(dim / inc) for dim in current.shape)
    means = np.empty((nx, ny, nz))
    rows = max(1, coarse.SLAB_ELEMENTS // (inc**3 * ny * nz))
    buf = np.empty((min(rows, nx) * inc, ny * inc, nz * inc))
    total = 0.0
    for r0 in range(0, nx, rows):
        r1 = min(r0 + rows, nx)
        slab = buf[: (r1 - r0) * inc]
        edge_pad(current[r0 * inc : r1 * inc], slab.shape, ref, out=slab)
        block = means[r0:r1]
        np.divide(block_sums(slab, inc), inc**3, out=block)
        slab.reshape(r1 - r0, inc, ny, inc, nz, inc)[...] -= block[:, None, :, None, :, None]
        d = slab[: x - r0 * inc, :y, :z]
        np.square(d, out=d)
        total += float(d.sum())
    return means, -0.5 * (total / current.size) + 0.0


def _run_cascade(v: Volume3D, schedule: ScaleSchedule) -> RunResult:
    incs = _incremental_factors(schedule.factors)
    entries = []
    reports = []
    current = v.data
    # Both cascades carry their fields relative to the first voxel, so their
    # means round at the scale of the texture, not of a DC offset.
    ref = float(current.flat[0])
    if schedule.mode == "sliding_cascade":
        # Two full-size buffers serve every step: the running field and its
        # window means, which then become the next step's field.
        current = current - ref
        spare = np.empty_like(current)
    for k, (factor, inc) in enumerate(zip(schedule.factors, incs)):
        lattice_shape = current.shape
        if inc == 1:
            o = 0.0  # the coarse field is the field itself
        elif schedule.mode == "block_cascade":
            current, o = _block_step(current, ref, inc)
            ref = 0.0
        else:
            means = window_means_into(current, inc, spare)
            o = _difference_overlap(current, means)
            current, spare = means, current
        entries.append(ProfileEntry(k, factor, abs(o)))
        reports.append(
            {
                "scale_index": k,
                "scale_factor": factor,
                "mode": schedule.mode,
                "incremental_factor": inc,
                "lattice_shape": lattice_shape,
            }
        )
    return RunResult(ComplexityProfile(tuple(entries)), (), tuple(reports))


def multiscale_run(v: Volume3D, schedule: ScaleSchedule) -> RunResult:
    """Run the full multiscale pipeline, keeping per-scale run metadata.

    A volume whose values overflow float64 in the kernels' sums and squares,
    or give a non-finite value at any scale, raises :class:`ValueRangeError`.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            result = (_run_algorithm1 if schedule.mode == "algorithm1" else _run_cascade)(v, schedule)
        finite = all(math.isfinite(e.complexity) for e in result.profile.per_scale)
    except FloatingPointError:
        finite = False
    if not finite:
        raise ValueRangeError("volume values overflow float64 in the complexity arithmetic; rescale the volume")
    return result


def multiscale_profile(v: Volume3D, schedule: ScaleSchedule) -> tuple[ComplexityProfile, list[ComplexityMap]]:
    """Per-scale complexity of ``v`` plus complexity maps (algorithm1 mode only)."""
    result = multiscale_run(v, schedule)
    return result.profile, list(result.maps)
