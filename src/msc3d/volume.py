"""Dense 3-D scalar fields and synthetic test phantoms.

Axis convention: volumes are indexed (x, y, z) in C order, z fastest,
matching the payload layout of the ``.npy`` files this package reads and
writes. All arithmetic is done in float64 regardless of on-disk dtype.

Every voxel of a ``Volume3D`` is finite. ``Volume3D(data)`` checks that
where the data enters; ``read_npy`` checks it slab by slab as it reads the
payload, and builds its volume without a second check.

Phantom reproducibility: random phantoms are drawn from numpy's PCG64
generator seeded with ``PhantomSpec.rng_seed``, so a spec always yields
the same volume, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhantomError

PHANTOM_KINDS = ("constant", "white_noise", "axis_stripes", "smoothed_noise")
AXIS_NAMES = ("x", "y", "z")


class InvalidSpecError(PhantomError):
    """PhantomSpec violates its invariants."""


@dataclass(frozen=True, eq=False)
class Volume3D:
    """Immutable 3-D scalar field.

    The backing array is coerced to C-contiguous float64 and marked
    read-only; every voxel must be finite. Only ``read_npy``, which checks
    its payload as it reads it, skips these checks, through
    :meth:`_of_checked`.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"volume must be 3-D, got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise ValueError(f"every dimension must be >= 1, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("volume contains NaN or Inf values")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @classmethod
    def _of_checked(cls, arr: np.ndarray) -> Volume3D:
        """The volume over ``arr``, which the caller has checked to be a
        C-contiguous float64 array of positive 3-D shape and finite values;
        it is only marked read-only, not copied or checked again."""
        arr.setflags(write=False)
        volume = object.__new__(cls)
        object.__setattr__(volume, "data", arr)
        return volume

    @property
    def shape(self) -> tuple[int, int, int]:
        x, y, z = self.data.shape
        return (x, y, z)


@dataclass(frozen=True)
class PhantomSpec:
    """Recipe for a synthetic volume.

    ``level`` is kind-specific: the fill value for ``constant``, the noise
    amplitude for ``white_noise``, the stripe amplitude for ``axis_stripes``
    and the smoothing radius (window side ``2*level + 1``, at most the
    largest dimension) for ``smoothed_noise``. ``period`` only matters for
    ``axis_stripes``.
    """

    kind: str
    shape: tuple[int, int, int]
    level: float = 1.0
    period: int = 1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in PHANTOM_KINDS:
            raise InvalidSpecError(
                f"unknown phantom kind {self.kind!r}; expected one of {PHANTOM_KINDS}"
            )
        if len(self.shape) != 3 or min(self.shape) < 1:
            raise InvalidSpecError(f"shape must be a positive triple, got {self.shape}")
        if math.prod(map(int, self.shape)) * 8 > np.iinfo(np.intp).max:
            raise InvalidSpecError(f"shape {self.shape} holds more float64 bytes than an array can index")
        if not np.isfinite(self.level) or self.level < 0:
            raise InvalidSpecError(f"level must be finite and >= 0, got {self.level}")
        if self.period < 1:
            raise InvalidSpecError(f"stripe period must be >= 1, got {self.period}")
        # At a radius of the largest dimension every window covers the volume.
        if self.kind == "smoothed_noise" and not self.level == int(self.level) <= max(self.shape):
            raise InvalidSpecError(
                f"smoothing radius must be an integer of at most {max(self.shape)}, got {self.level:g}"
            )
        if self.rng_seed < 0:
            raise InvalidSpecError(f"rng_seed must be >= 0, got {self.rng_seed}")


def _axis_index(axis: int | str) -> int:
    if isinstance(axis, str):
        name = axis.lower()
        if name not in AXIS_NAMES:
            raise ValueError(f"axis must be one of {AXIS_NAMES}, got {axis!r}")
        return AXIS_NAMES.index(name)
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    return axis


def mid_slice(v: Volume3D, axis: int | str) -> np.ndarray:
    """The plane at index ``floor(dim/2)`` along the chosen axis."""
    ax = _axis_index(axis)
    return np.take(v.data, v.shape[ax] // 2, axis=ax)


def generate_phantom(spec: PhantomSpec) -> Volume3D:
    """Deterministically build the volume described by ``spec``.

    white_noise draws i.i.d. uniforms in [0, level); smoothed_noise applies
    a cubic sliding mean of side ``2*level + 1`` to unit-amplitude noise;
    axis_stripes alternates 0 and ``level`` along x, switching every
    ``period`` voxels starting with 0.
    """
    x, y, z = spec.shape
    if spec.kind == "constant":
        return Volume3D(np.full(spec.shape, float(spec.level)))
    if spec.kind == "axis_stripes":
        stripe = (np.arange(x) // min(spec.period, x)) % 2
        vals = spec.level * stripe.astype(np.float64)
        return Volume3D(np.broadcast_to(vals[:, None, None], spec.shape).copy())
    rng = np.random.Generator(np.random.PCG64(spec.rng_seed))
    if spec.kind == "white_noise":
        return Volume3D(rng.random(spec.shape) * spec.level)
    # smoothed_noise: box-filter unit noise with the sliding-mean kernel
    from .coarse import sliding_mean

    noise = Volume3D(rng.random(spec.shape))
    side = 2 * int(spec.level) + 1
    return sliding_mean(noise, side)
