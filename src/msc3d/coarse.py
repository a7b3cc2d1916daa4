"""Coarse-graining kernels: block averaging and sliding cubic means.

The kernels ``edge_pad``, ``block_sums``, ``block_means`` and
``window_means_in_place`` work on plain float64 ndarrays;
``block_downsample`` and ``sliding_mean`` wrap them for :class:`Volume3D`,
which validates its data once, at that boundary.

``block_means`` is the one block-mean kernel, for ``block_downsample`` and
the block cascade. It fills slabs of whole block rows as ``edge_pad``
pads and sums each block in the order numpy's pairwise sum adds a
C-ordered block (``block_sums``), so each mean equals numpy's mean of its
padded block to the bit. ``window_means_in_place`` is the one
sliding-mean kernel, for ``sliding_mean`` and the sliding cascade. Their
docstrings say how they stream a field through slabs of about
``SLAB_ELEMENTS`` values, the one slab size of the package. The test suite
checks both of the sliding kernel's side paths against loop oracles, one
of them exact to the bit.

Window placement for even sides: a window of side ``s`` centered at voxel
``i`` spans ``i - s//2 .. i + s - 1 - s//2`` inclusive per axis (for even
``s`` that is s/2 voxels before and s/2 - 1 after). At volume boundaries
the window is clipped and the mean renormalized by the in-bounds count.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import numpy as np

from .volume import Volume3D


def edge_pad(
    arr: np.ndarray, shape: tuple[int, ...], offset: float = 0.0, out: np.ndarray | None = None
) -> np.ndarray:
    """``arr - offset`` in a float64 array of ``shape``, edge-padded at the
    high end of each axis.

    Padding an axis to any longer length leaves every earlier voxel as it is,
    so one copy padded for the largest block serves every smaller factor.
    Given ``out`` (of ``shape``, not overlapping ``arr``), the result is
    written there instead of into a new array: a slab of x-planes of a
    padded lattice is filled this way from the slab of ``arr`` it covers.
    """
    x, y, z = arr.shape
    if out is None:
        out = np.empty(shape)
    np.subtract(arr, offset, out=out[:x, :y, :z])
    out[x:, :y, :z] = out[x - 1 : x, :y, :z]
    out[:, y:, :z] = out[:, y - 1 : y, :z]
    out[:, :, z:] = out[:, :, z - 1 : z]
    return out


def block_sums(arr: np.ndarray, factor: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of every ``factor**3`` block of ``arr``, whose dims are multiples of ``factor``.

    numpy adds 8 values as ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)),
    which for a C-ordered 2x2x2 block is a pair sum along z, then y, then x:
    three strided slice adds. Larger blocks are gathered into C-ordered runs
    and summed by numpy itself, so every factor keeps that order. The sums
    are written to ``out`` (of the block lattice's shape), or to a new array.
    """
    x, y, z = arr.shape
    nx, ny, nz = x // factor, y // factor, z // factor
    if out is None:
        out = np.empty((nx, ny, nz))
    if factor == 2:
        zs = np.add(arr[:, :, 0::2], arr[:, :, 1::2])
        ys = np.add(zs[:, 0::2], zs[:, 1::2])
        np.add(ys[0::2], ys[1::2], out=out)
    else:
        blocks = arr.reshape(nx, factor, ny, factor, nz, factor).transpose(0, 2, 4, 1, 3, 5)
        np.ascontiguousarray(blocks).reshape(nx, ny, nz, factor**3).sum(axis=3, out=out)
    return out


def block_means(
    arr: np.ndarray, factor: int, ref: float = 0.0, difference: bool = False, shape: tuple[int, ...] | None = None
) -> tuple[np.ndarray, float | None]:
    """Mean of every ``factor**3`` block of ``arr - ref`` edge-padded to
    whole blocks, ``ceil(dim / factor)`` blocks per axis of ``shape`` (by
    default ``arr.shape``), and the sum of the squared differences between
    ``arr - ref`` and the re-upsampled means, or ``None`` without
    ``difference``, which skips that sum.

    The padded block lattice is walked in slabs of whole block rows along
    x, about ``SLAB_ELEMENTS`` values each. Each slab is filled with the
    part of ``arr - ref`` it covers, padded as ``edge_pad`` pads, in one
    slab buffer, so no full-size field is made; a slab past the last
    x-plane of ``arr`` repeats that plane. The slab's :func:`block_sums`,
    divided, are its rows of means, each numpy's mean of its padded block
    to the bit. With ``difference``, the re-upsampled means then come off
    the slab in place, leaving the difference field, whose part inside
    ``arr`` is squared and summed, one numpy sum per slab.
    """
    x, y, z = arr.shape
    nx, ny, nz = (-(-dim // factor) for dim in (shape or arr.shape))
    means = np.empty((nx, ny, nz))
    rows = max(1, SLAB_ELEMENTS // (factor**3 * ny * nz))
    buf = np.empty((min(rows, nx) * factor, ny * factor, nz * factor))
    total = 0.0
    for r0 in range(0, nx, rows):
        r1 = min(r0 + rows, nx)
        padded = buf[: (r1 - r0) * factor]
        slab = edge_pad(arr[min(r0 * factor, x - 1) : r1 * factor], padded.shape, ref, out=padded)
        block = means[r0:r1]
        block_sums(slab, factor, out=block)
        block /= factor**3
        if difference:
            slab.reshape(r1 - r0, factor, ny, factor, nz, factor)[...] -= block[:, None, :, None, :, None]
            d = slab[: max(0, x - r0 * factor), :y, :z]
            np.square(d, out=d)
            total += float(d.sum())
    return means, total if difference else None


def block_downsample(v: Volume3D, factor: int, ref: float = 0.0, shape: tuple[int, ...] | None = None) -> Volume3D:
    """Replace each ``factor**3`` block of ``v - ref`` by its mean.

    The volume is edge-padded to whole blocks of ``shape``, by default its
    own, so the output shape is ``ceil(dim / factor)`` per axis of
    ``shape``. Each mean equals numpy's mean of its padded block to the
    bit; :func:`block_means` pads a slab at a time, so no padded copy of the
    volume is made. At factor 1, ``v`` itself is returned unless ``ref`` or
    ``shape`` is given.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1 and ref == 0 and shape is None:
        return v
    return Volume3D(block_means(v.data, factor, ref, shape=shape)[0])


# Sides up to this add side-1 shifted slices per axis; larger sides take two
# slices of a running sum, whose cost does not grow with the side. Medians
# of one ``window_means_in_place`` call on a 2-CPU Xeon VM, shift path vs
# running sums: 33.9 vs 49.2 ms at side 5 and 64.9 vs 48.2 ms at side 9 on
# 128^3, 37.8 vs 53.1 and 76.0 vs 51.0 ms on 121x145x121, 4.87 vs 6.44 and
# 9.12 vs 6.41 ms on 64^3. So the paths cross between sides 5 and 9, below
# this bound. It stays at 10: moving it would change the bytes of
# ``smoothed_noise`` phantoms at levels 3-4 (sides 7 and 9).
_SHIFT_ADD_MAX_SIDE = 10

# Every streamed kernel, here and in ``complexity``, works on slabs of about
# this many float64 elements (256 KB), which stay in cache through its passes.
SLAB_ELEMENTS = 1 << 15


def _cut(axis: int, start: int | None, stop: int | None) -> tuple[slice, ...]:
    """Index of the ``start:stop`` slabs along ``axis`` of an array."""
    return (slice(None),) * axis + (slice(start, stop),)


def _axis_window_steps(
    src: np.ndarray, axis: int, side: int, out: np.ndarray, run: np.ndarray | None
) -> list[Callable[[], object]]:
    """The steps that write the clipped window sums of ``src`` along
    ``axis`` into ``out``: numpy calls bound to views of these arrays, so a
    slab loop that refills the same buffers binds them once.

    Windows are placed as in :func:`sliding_mean`. ``out`` must not overlap
    ``src``; both are C-contiguous float64 arrays of one shape, and so is
    ``run``, which sides above ``_SHIFT_ADD_MAX_SIDE`` take their running
    sum in.
    """
    n = src.shape[axis]
    before = side // 2
    after = side - 1 - before

    if side > _SHIFT_ADD_MAX_SIDE:
        # out[i] = run[min(i + after, n - 1)] - run[i - before - 1], where a
        # negative index stands for the empty prefix.
        k = max(0, n - after)
        steps = [
            partial(np.cumsum, src, axis=axis, out=run),
            partial(np.copyto, out[_cut(axis, None, k)], run[_cut(axis, after, after + k)]),
            partial(np.copyto, out[_cut(axis, k, None)], run[_cut(axis, n - 1, None)]),
        ]
        if before + 1 < n:
            tail = out[_cut(axis, before + 1, None)]
            steps.append(partial(np.subtract, tail, run[_cut(axis, None, n - before - 1)], out=tail))
        return steps
    # The window adds the voxel itself, then the shifts +1..+after and
    # -1..-before that stay inside the axis, in that order. Each shift is one
    # add of two runs of the flattened arrays, which also adds across the
    # edges of the axis; the first ``before`` and last ``after`` slabs, the
    # only ones whose windows are clipped, are then summed again from their
    # own slabs. Along z that replaces many short rows by one long run.
    shifts = [d for d in range(1, after + 1) if d < n] + [-d for d in range(1, before + 1) if d < n]
    if not shifts:
        return [partial(np.copyto, out, src)]
    flat, total = src.reshape(-1), out.reshape(-1)
    size = flat.size
    stride = src.strides[axis] // src.itemsize
    steps = []
    for j, d in enumerate(shifts):
        k = d * stride
        dst, add = (total[: size - k], flat[k:]) if k > 0 else (total[-k:], flat[: size + k])
        first = flat[: size - k] if k > 0 else flat[-k:]
        steps.append(partial(np.add, first if j == 0 else dst, add, out=dst))
    cut = [slice(None)] * (axis + 1)
    for i in (*range(min(before, n)), *range(max(n - after, before), n)):
        cut[axis] = slice(i, i + 1)
        edge = out[tuple(cut)]
        steps.append(partial(np.copyto, edge, src[tuple(cut)]))
        for d in shifts:
            if 0 <= i + d < n:
                cut[axis] = slice(i + d, i + d + 1)
                steps.append(partial(np.add, edge, src[tuple(cut)], out=edge))
    return steps


def _x_window_sums(field: np.ndarray, start: int, stop: int, shifts: list[int], out: np.ndarray) -> None:
    """Write the clipped window sums along x of planes ``start:stop`` of
    ``field`` into ``out``, for sides up to ``_SHIFT_ADD_MAX_SIDE``.

    Each plane adds itself, then its planes ``shifts`` away (+1..+after,
    then -1..-before) that stay inside the axis, in that order: the first
    shift adds straight into ``out``, and planes it does not reach start as
    a copy of themselves.
    """
    n = field.shape[0]
    for k, d in enumerate(shifts):
        a, b = max(start, -d), min(stop, n - d)  # the planes whose shift stays inside
        if k == 0:
            for lo, hi in ((start, min(a, stop)), (max(a, b), stop)):
                if lo < hi:
                    np.copyto(out[lo - start : hi - start], field[lo:hi])
            if a < b:
                np.add(field[a:b], field[a + d : b + d], out=out[a - start : b - start])
        elif a < b:
            out[a - start : b - start] += field[a + d : b + d]


def _x_running_sums(
    field: np.ndarray, start: int, stop: int, side: int, ring: np.ndarray, out: np.ndarray
) -> None:
    """Write the clipped window sums along x of planes ``start:stop`` of
    ``field`` into ``out``, for sides above ``_SHIFT_ADD_MAX_SIDE``.

    ``ring`` holds the running sum over the planes, that of plane ``j`` at
    ``j % len(ring)``, and needs at least ``stop - start + side`` planes.
    Called on the slabs in order, each call adds the running sums up to
    plane ``stop + after - 1`` that the calls before it have not, one
    plane-wise add each: the order ``np.cumsum`` adds in, at a tenth of its
    time along the outer axis of a C-ordered array. A window's sum is then
    ``run[min(i + after, n - 1)] - run[i - before - 1]``, where a negative
    index stands for the empty prefix.
    """
    n = field.shape[0]
    before = side // 2
    after = side - 1 - before
    r = len(ring)
    for j in range(min(start + after, n) if start else 0, min(stop + after, n)):
        if j == 0:
            np.copyto(ring[0], field[0])
        else:
            np.add(ring[(j - 1) % r], field[j], out=ring[j % r])
    for i in range(start, stop):
        last = ring[min(i + after, n - 1) % r]
        if i > before:
            np.subtract(last, ring[(i - before - 1) % r], out=out[i - start])
        else:
            np.copyto(out[i - start], last)


def _clip_rescales(n: int, side: int) -> list[tuple[int, int, np.ndarray]]:
    """``(start, stop, side / count)`` of the runs along an axis of ``n``
    whose windows are clipped, where ``count`` is their in-bounds length."""
    before = side // 2
    after = side - 1 - before
    lo = min(before, n)
    hi = max(n - after, lo)
    return [
        (a, b, side / np.array([min(i + after, n - 1) - max(i - before, 0) + 1 for i in range(a, b)]))
        for a, b in ((0, lo), (hi, n))
        if a < b
    ]


def window_means_in_place(field: np.ndarray, side: int, difference: bool = True) -> float | None:
    """Overwrite ``field`` with its clipped mean over the cubic window of
    ``side >= 2`` centered at each voxel, and return the sum of the squared
    differences between the old and the new field, or ``None`` without
    ``difference``, which skips that sum.

    ``field`` is a C-contiguous float64 array. It is walked in slabs of
    x-planes, about ``SLAB_ELEMENTS`` values each. A slab takes its x window
    sums into a slab buffer and, while it is in cache, its y and z sums, one
    multiply by ``1/side**3`` and the rescaling of its clipped windows to
    their in-bounds counts; its squared difference from the planes it
    replaces is summed, one numpy sum per slab, unless ``difference`` is
    false. Small sides read the x windows from ``field`` itself, so a
    slab's means are written over it only once no later window reaches back
    into it, ``ceil((side // 2) / planes)`` slabs on. Large sides read them
    from a ring of running sums of the original planes, so their cost does
    not grow with the side.
    """
    nx, ny, nz = field.shape
    before = side // 2
    after = side - 1 - before
    planes = max(1, SLAB_ELEMENTS // (ny * nz))
    large = side > _SHIFT_ADD_MAX_SIDE
    slab_shape = (min(planes, nx), ny, nz)
    if large:
        ring = np.empty((min(planes + side, nx), ny, nz))
        run = np.empty(slab_shape)
    else:
        shifts = [*range(1, after + 1), *range(-1, -before - 1, -1)]
    # Slab k's means wait in means[k % len(means)] until slab k + lag is
    # done, the last one whose x windows read its planes.
    lag = 0 if large else -(-before // planes)
    means = [np.empty(slab_shape) for _ in range(lag + 1)]
    part = np.empty(slab_shape)
    scale = 1.0 / side**3
    x_rescales, y_rescales, z_rescales = (_clip_rescales(n, side) for n in field.shape)
    # Per slab buffer and slab length: the y and z sums and the multiply by
    # 1/side**3, then the y and z rescaling of clipped windows. They are
    # bound once because a 121x145x121 grid has one-plane slabs, where
    # slicing them afresh per slab cost as much as writing in place saved.
    steps: dict[tuple[int, int], tuple[list, list]] = {}
    starts = range(0, nx, planes)
    total = 0.0
    for k, start in enumerate(starts):
        stop = min(start + planes, nx)
        if k > lag:
            done = starts[k - lag - 1]
            np.copyto(field[done : done + planes], means[(k - lag - 1) % len(means)])
        key = (k % len(means), stop - start)
        xs, ys = means[key[0]][: key[1]], part[: key[1]]
        if large:
            _x_running_sums(field, start, stop, side, ring, xs)
        else:
            _x_window_sums(field, start, stop, shifts, xs)
        if key not in steps:
            rs = run[: key[1]] if large else None
            sums = _axis_window_steps(xs, 1, side, ys, rs) + _axis_window_steps(ys, 2, side, xs, rs)
            sums.append(partial(np.multiply, xs, scale, out=xs))
            rescales = [partial(np.multiply, xs[:, a:b], f[:, None], out=xs[:, a:b]) for a, b, f in y_rescales]
            rescales += [partial(np.multiply, xs[:, :, a:b], f, out=xs[:, :, a:b]) for a, b, f in z_rescales]
            steps[key] = (sums, rescales)
        sums, rescales = steps[key]
        for step in sums:
            step()
        for a, b, rescale in x_rescales:
            lo, hi = max(a, start), min(b, stop)
            if lo < hi:
                xs[lo - start : hi - start] *= rescale[lo - a : hi - a, None, None]
        for step in rescales:
            step()
        if difference:
            np.subtract(field[start:stop], xs, out=ys)
            np.square(ys, out=ys)
            total += float(ys.sum())
    for k in range(max(0, len(starts) - lag - 1), len(starts)):
        start = starts[k]
        np.copyto(field[start : start + planes], means[k % len(means)][: min(planes, nx - start)])
    return total if difference else None


def sliding_mean(v: Volume3D, side: int) -> Volume3D:
    """Mean over the cubic window of ``side`` centered at each voxel.

    Output shape equals input shape; boundary windows are clipped and
    renormalized by the in-bounds count. The window is separable, so the
    mean is taken one axis at a time.
    """
    if side < 1:
        raise ValueError(f"side must be >= 1, got {side}")
    if side == 1:
        return v
    # Working relative to the first voxel keeps constant fields exact and
    # bounds the magnitude of the window sums.
    offset = float(v.data.flat[0])
    mean = v.data - offset
    window_means_in_place(mean, side, difference=False)
    mean += offset
    return Volume3D(mean)
