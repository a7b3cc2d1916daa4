"""Coarse-graining kernels: block averaging and sliding cubic means.

``sliding_mean`` is the one sliding-mean kernel. The window is separable, so
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
from .volume import Volume3D, pad_to_multiple


def block_downsample(v: Volume3D, factor: int, offset: float = 0.0) -> Volume3D:
    """Replace each ``factor**3`` block by its mean, less ``offset``.

    The volume is edge-padded to divisibility first, so the output shape is
    ``ceil(dim / factor)`` per axis. The offset comes off before the blocks
    are summed, so passing a voxel of a volume that sits on a large DC
    offset keeps the means at the scale of the texture.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1 and offset == 0.0:
        return v
    padded = pad_to_multiple(v, factor).data
    nx, ny, nz = (dim // factor for dim in padded.shape)
    # Gather into a buffer of our own, so the offset can come off in place.
    blocks = np.empty((nx, ny, nz, factor, factor, factor))
    np.copyto(blocks, padded.reshape(nx, factor, ny, factor, nz, factor).transpose(0, 2, 4, 1, 3, 5))
    if offset:
        blocks -= offset
    return Volume3D(blocks.reshape(nx, ny, nz, factor**3).mean(axis=3))


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
    for axis in range(3):
        mean = _axis_window_means(mean, axis, side)
    mean += offset
    return Volume3D(mean)
