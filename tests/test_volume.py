from __future__ import annotations

import numpy as np
import pytest

from msc3d import PhantomSpec, Volume3D, generate_phantom, mid_slice
from msc3d.volume import InvalidSpecError


class TestVolume3D:
    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            Volume3D(np.zeros((2, 2)))

    def test_rejects_nan(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Volume3D(arr)

    def test_rejects_inf(self):
        arr = np.zeros((2, 2, 2))
        arr[1, 1, 1] = np.inf
        with pytest.raises(ValueError):
            Volume3D(arr)

    def test_rejects_empty_dim(self):
        with pytest.raises(ValueError):
            Volume3D(np.zeros((2, 0, 2)))

    def test_data_is_read_only_float64(self):
        v = Volume3D(np.ones((2, 2, 2), dtype=np.float32))
        assert v.data.dtype == np.float64
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 5.0


class TestMidSlice:
    def test_z_plane_index(self):
        arr = np.arange(27.0).reshape(3, 3, 3)
        assert np.array_equal(mid_slice(Volume3D(arr), "z"), arr[:, :, 1])

    def test_constant_plane(self):
        plane = mid_slice(Volume3D(np.full((4, 5, 6), 9.0)), "y")
        assert plane.shape == (4, 6)
        assert np.all(plane == 9.0)

    def test_stripes_axis_x_is_constant_plane(self):
        v = generate_phantom(PhantomSpec(kind="axis_stripes", shape=(5, 4, 4), level=1.0, period=1))
        plane = mid_slice(v, "x")
        expected = v.data[2, 0, 0]  # direct indexing: value at x = floor(5/2)
        assert np.all(plane == expected)

    def test_axis_aliases(self):
        arr = np.arange(27.0).reshape(3, 3, 3)
        assert np.array_equal(mid_slice(Volume3D(arr), 0), mid_slice(Volume3D(arr), "x"))


class TestGeneratePhantom:
    def test_constant(self):
        v = generate_phantom(PhantomSpec(kind="constant", shape=(8, 8, 8), level=1.0))
        assert np.all(v.data == 1.0)

    def test_stripes_period_1(self):
        v = generate_phantom(PhantomSpec(kind="axis_stripes", shape=(4, 4, 4), level=1.0, period=1))
        x = np.arange(4) % 2
        assert np.array_equal(v.data, np.broadcast_to(x[:, None, None], (4, 4, 4)).astype(float))

    def test_stripes_period_2_amplitude_3(self):
        v = generate_phantom(PhantomSpec(kind="axis_stripes", shape=(8, 2, 2), level=3.0, period=2))
        expected = 3.0 * ((np.arange(8) // 2) % 2)
        assert np.array_equal(v.data[:, 0, 0], expected)

    def test_same_seed_identical(self):
        spec = PhantomSpec(kind="white_noise", shape=(6, 6, 6), level=2.0, rng_seed=99)
        a = generate_phantom(spec)
        b = generate_phantom(spec)
        assert np.array_equal(a.data, b.data)

    def test_different_seed_differs(self):
        a = generate_phantom(PhantomSpec(kind="white_noise", shape=(6, 6, 6), level=1.0, rng_seed=1))
        b = generate_phantom(PhantomSpec(kind="white_noise", shape=(6, 6, 6), level=1.0, rng_seed=2))
        assert not np.array_equal(a.data, b.data)

    def test_white_noise_range(self):
        v = generate_phantom(PhantomSpec(kind="white_noise", shape=(8, 8, 8), level=0.5, rng_seed=3))
        assert v.data.min() >= 0.0
        assert v.data.max() < 0.5

    def test_smoothed_noise_reduces_variance(self):
        noise = generate_phantom(PhantomSpec(kind="white_noise", shape=(16, 16, 16), level=1.0, rng_seed=5))
        smooth = generate_phantom(PhantomSpec(kind="smoothed_noise", shape=(16, 16, 16), level=2.0, rng_seed=5))
        assert smooth.data.var() < noise.data.var()

    def test_smoothed_noise_matches_manual_smoothing(self):
        from msc3d import sliding_mean

        rng = np.random.Generator(np.random.PCG64(11))
        manual = sliding_mean(Volume3D(rng.random((10, 10, 10))), 5)
        phantom = generate_phantom(PhantomSpec(kind="smoothed_noise", shape=(10, 10, 10), level=2.0, rng_seed=11))
        assert np.array_equal(phantom.data, manual.data)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "bogus", "shape": (2, 2, 2)},
            {"kind": "constant", "shape": (0, 2, 2)},
            {"kind": "constant", "shape": (2, 2, 2), "level": -1.0},
            {"kind": "axis_stripes", "shape": (2, 2, 2), "period": 0},
            {"kind": "smoothed_noise", "shape": (2, 2, 2), "level": 1.5},
            {"kind": "smoothed_noise", "shape": (2, 3, 2), "level": 4.0},
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(InvalidSpecError):
            PhantomSpec(**kwargs)

    def test_mid_slice_of_constant_is_constant_everywhere(self):
        v = generate_phantom(PhantomSpec(kind="constant", shape=(5, 6, 7), level=4.5))
        for axis in ("x", "y", "z"):
            assert np.all(mid_slice(v, axis) == 4.5)
