"""Coarse-graining kernels: block averaging and sliding cubic means.

The kernels ``edge_pad``, ``block_sums`` and ``window_means_into`` work on
plain float64 ndarrays; ``block_downsample`` and ``sliding_mean`` wrap them
for :class:`Volume3D`, which validates its data once, at that boundary.

Block means: ``edge_pad`` makes one float64 copy of the volume, less a DC
offset, edge-padded to whole blocks (or fills a buffer the caller passes,
such as one slab of x-planes), and ``block_sums`` sums its blocks from
basic slices. Each block is summed in the order numpy's pairwise sum adds a
C-ordered run of its values, so ``block_downsample`` equals the mean of every
block to the bit, and a factor-2 step is three strided pair sums.

``window_means_into`` is the one sliding-mean kernel. The window is
separable: it writes the clipped window sums along x into the output the
caller passes in, then takes each slab of x-planes, while it is in cache,
through its y and z sums and one multiply by ``1/side**3`` (a slab is
about ``SLAB_ELEMENTS`` values, the one slab size of the package); only the
clipped boundary slabs are then rescaled to their in-bounds counts. Small
sides add the ``side - 1`` shifted runs of the flattened array, the first
straight into the output, and sum the clipped boundary slabs again from
their own slabs; large sides take two slices of a running sum, so their
cost does not grow with the side. Apart from one slab buffer the
small-side path allocates nothing, so the sliding cascade runs every step
on the same two full-size buffers. ``sliding_mean`` runs the kernel on a
copy taken relative to the first voxel. The test suite checks both paths
against a plain loop oracle.

Window placement for even sides: a window of side ``s`` centered at voxel
``i`` spans ``i - s//2 .. i + s - 1 - s//2`` inclusive per axis (for even
``s`` that is s/2 voxels before and s/2 - 1 after). At volume boundaries
the window is clipped and the mean renormalized by the in-bounds count.
"""

from __future__ import annotations

import math

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


def block_sums(arr: np.ndarray, factor: int) -> np.ndarray:
    """Sum of every ``factor**3`` block of ``arr``, whose dims are multiples of ``factor``.

    numpy adds 8 values as ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)),
    which for a C-ordered 2x2x2 block is a pair sum along z, then y, then x:
    three strided slice adds. Larger blocks are gathered into C-ordered runs
    and summed by numpy itself, so every factor keeps that order.
    """
    if factor == 2:
        s = arr[:, :, 0::2] + arr[:, :, 1::2]
        s = s[:, 0::2] + s[:, 1::2]
        return s[0::2] + s[1::2]
    nx, ny, nz = (dim // factor for dim in arr.shape)
    blocks = np.empty((nx, ny, nz, factor, factor, factor))
    np.copyto(blocks, arr.reshape(nx, factor, ny, factor, nz, factor).transpose(0, 2, 4, 1, 3, 5))
    return blocks.reshape(nx, ny, nz, factor**3).sum(axis=3)


def block_downsample(v: Volume3D, factor: int) -> Volume3D:
    """Replace each ``factor**3`` block by its mean.

    The volume is edge-padded to divisibility first, so the output shape is
    ``ceil(dim / factor)`` per axis. Each mean equals numpy's mean of its
    block to the bit (see :func:`block_sums`); a divisible volume is summed
    straight from its data.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return v
    shape = tuple(-(-dim // factor) * factor for dim in v.shape)
    arr = v.data if shape == v.shape else edge_pad(v.data, shape)
    return Volume3D(block_sums(arr, factor) / factor**3)


# Sides up to this add side-1 shifted slices per axis; larger sides take two
# slices of a running sum, whose cost does not grow with the side. On a
# 128^3 volume the two paths cost the same near side 10.
_SHIFT_ADD_MAX_SIDE = 10

# Every streamed kernel, here and in ``complexity``, works on slabs of about
# this many float64 elements (256 KB), which stay in cache through its passes.
SLAB_ELEMENTS = 1 << 15


def _cut(axis: int, start: int | None, stop: int | None) -> tuple[slice, ...]:
    """Index of the ``start:stop`` slabs along ``axis`` of an array."""
    return (slice(None),) * axis + (slice(start, stop),)


def _axis_window_sums(src: np.ndarray, axis: int, side: int, out: np.ndarray) -> np.ndarray:
    """Write the clipped window sums of ``src`` along ``axis`` into ``out``, and return ``out``.

    Windows are placed as in :func:`sliding_mean`. ``out`` must not overlap
    ``src``; both are C-contiguous float64 arrays of one shape.
    """
    n = src.shape[axis]
    before = side // 2
    after = side - 1 - before

    if side > _SHIFT_ADD_MAX_SIDE:
        # out[i] = run[min(i + after, n - 1)] - run[i - before - 1], where a
        # negative index stands for the empty prefix.
        if axis == 0:
            # Plane-wise in-place adds keep np.cumsum's add order, so the
            # result is the same to the bit, at a tenth of its time along
            # the outer axis of a C-ordered array.
            run = src.copy()
            for i in range(1, n):
                run[i] += run[i - 1]
        else:
            run = np.cumsum(src, axis=axis)
        k = max(0, n - after)
        out[_cut(axis, None, k)] = run[_cut(axis, after, after + k)]
        out[_cut(axis, k, None)] = run[_cut(axis, n - 1, None)]
        if before + 1 < n:
            out[_cut(axis, before + 1, None)] -= run[_cut(axis, None, n - before - 1)]
        return out
    # The window adds the voxel itself, then the shifts +1..+after and
    # -1..-before that stay inside the axis, in that order. Each shift is one
    # add of two runs of the flattened arrays, which also adds across the
    # edges of the axis; the first ``before`` and last ``after`` slabs, the
    # only ones whose windows are clipped, are then summed again from their
    # own slabs. Along z that replaces many short rows by one long run.
    shifts = [d for d in range(1, after + 1) if d < n] + [-d for d in range(1, before + 1) if d < n]
    if not shifts:
        np.copyto(out, src)
        return out
    flat, total = src.reshape(-1), out.reshape(-1)
    stride = flat.size // math.prod(src.shape[: axis + 1])
    for j, d in enumerate(shifts):
        lo, hi = max(d, 0) * stride, flat.size + min(d, 0) * stride
        shift = d * stride
        if j == 0:
            np.add(flat[lo - shift : hi - shift], flat[lo:hi], out=total[lo - shift : hi - shift])
        else:
            total[lo - shift : hi - shift] += flat[lo:hi]
    for i in sorted({*range(min(before, n)), *range(max(n - after, 0), n)}):
        slab = out[_cut(axis, i, i + 1)]
        np.copyto(slab, src[_cut(axis, i, i + 1)])
        for d in shifts:
            if 0 <= i + d < n:
                slab += src[_cut(axis, i + d, i + d + 1)]
    return out


def window_means_into(src: np.ndarray, side: int, out: np.ndarray) -> np.ndarray:
    """Write the clipped mean over the cubic window of ``side`` centered at
    each voxel of ``src`` into ``out``, and return ``out``.

    ``out`` must not overlap ``src``; both are C-contiguous float64 arrays
    of one shape. The x sums fill ``out``; then each slab of x-planes takes
    its y sums into a slab buffer and its z sums back into ``out``, and is
    multiplied by ``1/side**3`` while it is still in cache. Only the
    boundary slabs, whose windows are clipped, are then rescaled to their
    in-bounds counts.
    """
    _axis_window_sums(src, 0, side, out)
    nx, ny, nz = out.shape
    planes = max(1, SLAB_ELEMENTS // (ny * nz))
    part = np.empty((min(planes, nx), ny, nz))
    for start in range(0, nx, planes):
        slab = out[start : start + planes]
        sums = part[: len(slab)]
        _axis_window_sums(slab, 1, side, sums)
        _axis_window_sums(sums, 2, side, slab)
        slab *= 1.0 / side**3
    before = side // 2
    after = side - 1 - before
    for axis, n in enumerate(out.shape):
        pos = np.arange(n)
        count = np.minimum(pos + after, n - 1) - np.maximum(pos - before, 0) + 1
        lo = min(before, n)
        hi = max(n - after, lo)
        for start, stop in ((0, lo), (hi, n)):
            if start < stop:
                rescale = side / count[start:stop]
                out[_cut(axis, start, stop)] *= rescale.reshape((-1,) + (1,) * (2 - axis))
    return out


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
    rel = v.data - offset
    mean = window_means_into(rel, side, np.empty_like(rel))
    mean += offset
    return Volume3D(mean)
