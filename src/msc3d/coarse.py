"""Coarse-graining kernels: block averaging and sliding cubic means.

The kernels ``edge_pad``, ``block_sums`` and ``window_means`` work on plain
float64 ndarrays; ``block_downsample`` and ``sliding_mean`` wrap them for
:class:`Volume3D`, which validates its data once, at that boundary.

Block means: ``edge_pad`` makes one float64 copy of the volume, less a DC
offset, edge-padded to whole blocks, and ``block_sums`` sums its blocks from
basic slices. Each block is summed in the order numpy's pairwise sum adds a
C-ordered run of its values, so ``block_downsample`` equals the mean of every
block to the bit, and a factor-2 step is three strided pair sums.

``window_means`` is the one sliding-mean kernel. The window is separable, so
it takes clipped window means along each axis in turn, from basic slices
only. Small sides add the ``side - 1`` shifted slices; large sides take two
slices of a running sum, so their cost does not grow with the side. The test
suite checks both paths against a plain loop oracle.

Window placement for even sides: a window of side ``s`` centered at voxel
``i`` spans ``i - s//2 .. i + s - 1 - s//2`` inclusive per axis (for even
``s`` that is s/2 voxels before and s/2 - 1 after). At volume boundaries
the window is clipped and the mean renormalized by the in-bounds count.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError
from .volume import Volume3D


def edge_pad(arr: np.ndarray, shape: tuple[int, ...], offset: float = 0.0) -> np.ndarray:
    """``arr - offset`` in a new float64 array of ``shape``, edge-padded at the
    high end of each axis.

    Padding an axis to any longer length leaves every earlier voxel as it is,
    so one copy padded for the largest block serves every smaller factor.
    """
    x, y, z = arr.shape
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


def block_downsample(v: Volume3D, factor: int, offset: float = 0.0) -> Volume3D:
    """Replace each ``factor**3`` block by its mean, less ``offset``.

    The volume is edge-padded to divisibility first, so the output shape is
    ``ceil(dim / factor)`` per axis. The offset comes off before the blocks
    are summed, so passing a voxel of a volume that sits on a large DC
    offset keeps the means at the scale of the texture. Each mean equals
    numpy's mean of its block to the bit (see :func:`block_sums`); a
    divisible volume with no offset is summed straight from its data.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1 and offset == 0.0:
        return v
    shape = tuple(-(-dim // factor) * factor for dim in v.shape)
    arr = v.data if shape == v.shape and offset == 0.0 else edge_pad(v.data, shape, offset)
    return Volume3D(block_sums(arr, factor) / factor**3)


def block_upsample(v: Volume3D, factor: int, target_shape: tuple[int, int, int]) -> Volume3D:
    """Replicate each voxel over a ``factor**3`` block, cropped to ``target_shape``."""
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if len(target_shape) != 3 or min(target_shape) < 1:
        raise ShapeMismatchError(f"target_shape must be a positive triple, got {target_shape}")
    for dim, tdim in zip(v.shape, target_shape):
        if tdim > dim * factor:
            raise ShapeMismatchError(
                f"target_shape {target_shape} exceeds upsampled extent of {v.shape} x {factor}"
            )
    if factor == 1 and tuple(target_shape) == v.shape:
        return v
    arr = v.data
    for axis in range(3):
        arr = np.repeat(arr, factor, axis=axis)
    tx, ty, tz = target_shape
    return Volume3D(arr[:tx, :ty, :tz])


# Sides up to this add side-1 shifted slices per axis; larger sides take two
# slices of a running sum, whose cost does not grow with the side. On a
# 128^3 volume the two paths cost the same near side 10.
_SHIFT_ADD_MAX_SIDE = 10


def _axis_window_means(arr: np.ndarray, axis: int, side: int) -> np.ndarray:
    """Clipped window means of ``arr`` along ``axis``, placed as in :func:`sliding_mean`."""
    n = arr.shape[axis]
    before = side // 2
    after = side - 1 - before

    def cut(start, stop):
        idx = [slice(None)] * 3
        idx[axis] = slice(start, stop)
        return tuple(idx)

    if side <= _SHIFT_ADD_MAX_SIDE:
        out = arr.copy()
        for d in range(1, min(after, n - 1) + 1):
            out[cut(None, n - d)] += arr[cut(d, None)]
        for d in range(1, min(before, n - 1) + 1):
            out[cut(d, None)] += arr[cut(None, n - d)]
    else:
        # out[i] = run[min(i + after, n - 1)] - run[i - before - 1], where a
        # negative index stands for the empty prefix.
        if axis == 0:
            # Plane-wise in-place adds keep np.cumsum's add order, so the
            # result is the same to the bit, at a tenth of its time along
            # the outer axis of a C-ordered array.
            run = arr.copy()
            for i in range(1, n):
                run[i] += run[i - 1]
        else:
            run = np.cumsum(arr, axis=axis)
        out = np.empty_like(run)
        k = max(0, n - after)
        out[cut(None, k)] = run[cut(after, after + k)]
        out[cut(k, None)] = run[cut(n - 1, None)]
        if before + 1 < n:
            out[cut(before + 1, None)] -= run[cut(None, n - before - 1)]
    pos = np.arange(n)
    count = np.minimum(pos + after, n - 1) - np.maximum(pos - before, 0) + 1
    shape = [1, 1, 1]
    shape[axis] = n
    out /= count.reshape(shape)
    return out


def window_means(arr: np.ndarray, side: int) -> np.ndarray:
    """Clipped mean over the cubic window of ``side`` centered at each voxel, one axis at a time."""
    # Working relative to the first voxel keeps constant fields exact and
    # bounds the magnitude of the window sums.
    offset = float(arr.flat[0])
    mean = arr - offset
    for axis in range(3):
        mean = _axis_window_means(mean, axis, side)
    mean += offset
    return mean


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
    return Volume3D(window_means(v.data, side))
