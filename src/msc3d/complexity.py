"""Structural-complexity engine.

The central statistic for two same-lattice fields A, B is the overlap

    O(A, B) = <A*B> - (<A*A> + <B*B>) / 2 = -<(A - B)^2> / 2 <= 0,

whose magnitude measures how much A and B differ in mean-square terms.
Complexity at a scale is the magnitude of an overlap, so it is always
non-negative and vanishes exactly for fields that coarse-graining leaves
unchanged.

``multiscale_run`` is the one entry point. It returns a ``RunResult``: the
per-scale ``ProfileEntry`` tuple, the complexity maps (algorithm1 only) and
a JSON record of each scale. It runs one of three pipeline modes:

* ``algorithm1`` - for every factor, block-downsample the *original*
  volume, then sweep a strided window over the downsampled field and score
  each window by its three one-voxel shift overlaps. Produces a per-scale
  complexity map plus the map mean as the scale value.
* ``block_cascade`` - iteratively block-downsample the running field by
  each incremental factor and score the overlap between the field and its
  re-upsampled coarse version on the running lattice.
* ``sliding_cascade`` - same cascade, but the coarse field is a sliding
  cubic mean of the running field, so every step stays on the full lattice.

Every mode takes its block and window means relative to the volume's first
voxel, so they round at the scale of the texture, not of a DC offset.
``algorithm1`` builds its block means as a pyramid, each factor from the
one before it, and makes no full-size copy of the volume:
``_run_algorithm1`` says which levels read the volume itself.
How the kernels stream their fields through slabs of about
``coarse.SLAB_ELEMENTS`` values is documented where it happens:
``complexity_map``, ``coarse.block_means``,
``coarse.window_means_in_place`` and ``overlap``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coarse
from .coarse import block_downsample, block_means, window_means_in_place
from .errors import InputError, ScheduleError, ShapeMismatchError
from .volume import Volume3D

MODES = ("algorithm1", "block_cascade", "sliding_cascade")


class ScheduleInfeasibleError(ScheduleError):
    """The scale schedule cannot run on the given volume."""


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
class RunResult:
    """Profile, maps (algorithm1 only) and, per scale, the JSON record of what ran."""

    profile: tuple[ProfileEntry, ...]
    maps: tuple[ComplexityMap, ...]
    scale_reports: tuple[dict, ...]


def overlap(a: Volume3D, b: Volume3D) -> float:
    """Overlap <ab> - (<a^2> + <b^2>)/2 of two same-shape volumes; always <= 0.

    Evaluated as -<(a - b)^2>/2, which keeps full precision under a large
    common offset, where the expanded form cancels catastrophically. The
    difference is squared and summed a slab of x-planes at a time, in one
    buffer of about ``coarse.SLAB_ELEMENTS`` elements that stays in cache
    between its subtract, square and sum, so no full-size temporary is made.
    """
    if a.shape != b.shape:
        raise ShapeMismatchError(f"volume shapes differ: {a.shape} vs {b.shape}")
    nx = a.shape[0]
    planes = max(1, coarse.SLAB_ELEMENTS // (a.data.size // nx))
    buf = np.empty((min(planes, nx),) + a.shape[1:])
    total = 0.0
    for start in range(0, nx, planes):
        d = buf[: min(planes, nx - start)]
        np.subtract(a.data[start : start + planes], b.data[start : start + planes], out=d)
        np.square(d, out=d)
        total += float(d.sum())
    return -0.5 * (total / a.data.size) + 0.0


def _squared_differences(arr: np.ndarray, out: np.ndarray, buf: np.ndarray) -> None:
    """Write dx^2 + dy^2 + dz^2 of the forward differences of ``arr`` into
    ``out``, which has one x-plane fewer; its core, which drops the last y
    row and z column of each plane, is the sum on the core lattice.

    Each difference is a subtraction of two shifted runs of the flattened
    array, taken ``len(buf)`` elements at a time, with ``buf`` holding the
    y and z terms; the entries off the core straddle a row or a plane.
    """
    x, y, z = arr.shape
    flat = arr.ravel()
    plane = y * z
    total = out.reshape(-1)
    n = total.size
    chunk = len(buf)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        part, diff = total[lo:hi], buf[: hi - lo]
        np.subtract(flat[lo + plane : hi + plane], flat[lo:hi], out=part)
        np.square(part, out=part)
        for shift in (z, 1):
            np.subtract(flat[lo + shift : hi + shift], flat[lo:hi], out=diff)
            np.square(diff, out=diff)
            part += diff


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
    data: np.ndarray,
    window: tuple[int, int, int],
    stride: tuple[int, int, int],
    scale_factor: int = 1,
) -> ComplexityMap:
    """Sweep ``window`` (>= 2, fitting ``data``) at ``stride`` (>= 1) over
    the float64 array ``data``; each cell is the mean shift overlap
    magnitude -(ox + oy + oz)/3 of its window, hence >= 0.

    A window's shift overlap along an axis is the overlap of its core, which
    drops the last voxel of each axis, with the core moved one voxel along
    that axis: minus half the mean squared forward difference. The three
    squared forward differences are summed into one field on the core
    lattice, and each cell sums the field over its window's core: strided
    slices added one axis at a time, so each axis costs ``window - 1`` adds
    of a field that the earlier axes have already thinned by their strides.

    The sweep is streamed: the map's x-rows are taken in slabs that step
    over about ``coarse.SLAB_ELEMENTS`` input values, at least one row each.
    A slab's squared differences go to one reused buffer, which keeps the
    planes the next slab's windows share with it, so each plane is
    differenced once; its box sums, scaled, are written straight into the
    map. Every cell is the whole-field sweep's to the bit. A cropped view is
    read in place: only its slabs are copied, as they are differenced.
    """
    core = tuple(w - 1 for w in window)
    _, y, z = data.shape
    cells = np.empty(tuple((d - 1 - c) // s + 1 for d, c, s in zip(data.shape, core, stride)))
    depth, step = core[0], stride[0]
    rows = min(max(1, coarse.SLAB_ELEMENTS // (step * y * z)), len(cells))
    sq = np.empty(((rows - 1) * step + depth, y, z))
    buf = np.empty(min(sq.size, coarse.SLAB_ELEMENTS))
    scale = 6.0 * math.prod(core)
    held = (0, 0)  # the core x-rows whose squared differences sq holds
    for r0 in range(0, len(cells), rows):
        r1 = min(r0 + rows, len(cells))
        lo, hi = r0 * step, (r1 - 1) * step + depth
        keep = max(0, held[1] - lo)
        if keep:
            sq[:keep] = sq[lo - held[0] : held[1] - held[0]]
        _squared_differences(data[lo + keep : hi + 1], sq[keep : hi - lo], buf)
        np.divide(_strided_box_sums(sq[: hi - lo, :-1, :-1], core, stride), scale, out=cells[r0:r1])
        held = (lo, hi)
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
    # Each level averages blocks of the level before it. The first coarse
    # factor, and one that is not a multiple of the level before it, average
    # blocks of the volume itself, edge-padded for the largest block a slab
    # at a time; padding further leaves every earlier voxel as it is, so
    # each factor's block means are those of the volume padded for that
    # factor alone. No full-size copy of the volume is made.
    bases = (1,) + schedule.factors[:-1]
    ref = float(v.data.flat[0])
    padded_shape = tuple(max(math.ceil(dim / f) * f for f in schedule.factors) for dim in v.shape)
    level = v
    entries = []
    maps = []
    reports = []
    for k, (factor, base, down_shape) in enumerate(zip(schedule.factors, bases, down_shapes)):
        if factor > 1 and (base == 1 or factor % base):
            level = block_downsample(v, factor, ref, padded_shape)
        else:
            level = block_downsample(level, factor // base)
        cx, cy, cz = down_shape
        u = level.data[:cx, :cy, :cz]
        # The schedule's windows are >= 2 and strides >= 1, and every level
        # is >= 2 voxels per axis, so clipping to the level keeps them so.
        w_used = tuple(min(w, d) for w, d in zip(schedule.window, down_shape))
        s_used = tuple(min(s, d) for s, d in zip(schedule.stride, down_shape))
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
                "degenerate_sweep": any(w == d for w, d in zip(w_used, down_shape)),
            }
        )
    return RunResult(tuple(entries), tuple(maps), tuple(reports))


def _run_cascade(v: Volume3D, schedule: ScaleSchedule) -> RunResult:
    incs = _incremental_factors(schedule.factors)
    entries = []
    reports = []
    current = v.data
    # Both cascades carry their fields relative to the first voxel, so their
    # means round at the scale of the texture, not of a DC offset.
    ref = float(current.flat[0])
    if schedule.mode == "sliding_cascade":
        # The one relative copy is the running field: each step writes its
        # window means over it.
        current = current - ref
    for k, (factor, inc) in enumerate(zip(schedule.factors, incs)):
        lattice_shape = current.shape
        try:
            if inc == 1:
                total = 0.0  # the coarse field is the field itself
            elif schedule.mode == "block_cascade":
                current, total = block_means(current, inc, ref, difference=True)
                ref = 0.0
            else:
                total = window_means_in_place(current, inc)
        except ValueError as exc:  # a block row beyond memory, or a window side whose cube overflows
            raise ScheduleInfeasibleError(f"factor {factor}: {exc}") from None
        entries.append(ProfileEntry(k, factor, 0.5 * (total / math.prod(lattice_shape))))
        reports.append(
            {
                "scale_index": k,
                "scale_factor": factor,
                "mode": schedule.mode,
                "incremental_factor": inc,
                "lattice_shape": lattice_shape,
            }
        )
    return RunResult(tuple(entries), (), tuple(reports))


def multiscale_run(v: Volume3D, schedule: ScaleSchedule) -> RunResult:
    """Run the full multiscale pipeline, keeping per-scale run metadata.

    A volume whose values overflow float64 in the kernels' sums and squares,
    or give a non-finite value at any scale, raises :class:`ValueRangeError`.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            result = (_run_algorithm1 if schedule.mode == "algorithm1" else _run_cascade)(v, schedule)
        finite = all(math.isfinite(e.complexity) for e in result.profile)
    except FloatingPointError:
        finite = False
    if not finite:
        raise ValueRangeError("volume values overflow float64 in the complexity arithmetic; rescale the volume")
    return result
