from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msc3d import (
    PhantomSpec,
    Volume3D,
    block_downsample,
    block_upsample,
    generate_phantom,
    pad_to_multiple,
    sliding_mean,
    spatial_mean,
)
from msc3d import coarse
from msc3d.errors import ShapeMismatchError

from . import oracles
from .conftest import dyadic_array

dyadic_volumes = st.builds(
    lambda seed, dims: Volume3D(dyadic_array(np.random.default_rng(seed), dims)),
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(*(st.integers(2, 8),) * 3),
)


def sliding_mean_running_sum(v: Volume3D, side: int) -> Volume3D:
    """``sliding_mean`` with the crossover moved so every side takes the running-sum path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coarse, "_SHIFT_ADD_MAX_SIDE", 1)
        return sliding_mean(v, side)


class TestBlockDownsample:
    def test_factor_1_identity(self, rng):
        v = Volume3D(rng.random((5, 5, 5)))
        assert block_downsample(v, 1) is v

    def test_2_cubed_mean(self):
        v = Volume3D(np.arange(8.0).reshape(2, 2, 2))
        out = block_downsample(v, 2)
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 3.5

    def test_matches_loop_oracle_exactly(self):
        v = generate_phantom(PhantomSpec(kind="white_noise", shape=(16, 16, 16), level=1.0, rng_seed=8))
        out = block_downsample(v, 4)
        ref = oracles.block_means(v.data, 4)
        assert np.array_equal(out.data, ref)

    def test_non_divisible_pads_first(self, rng):
        arr = rng.random((5, 7, 9))
        out = block_downsample(Volume3D(arr), 4)
        assert out.shape == (2, 2, 3)
        ref = oracles.block_means(oracles.pad_replicate(arr, 4), 4)
        np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-15)

    def test_offset_comes_off_the_means(self, rng):
        arr = rng.random((5, 7, 9))
        for factor in (1, 2, 3):
            out = block_downsample(Volume3D(arr), factor, offset=0.75)
            ref = oracles.block_means(oracles.pad_replicate(arr, factor), factor) - 0.75
            np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-15)

    def test_mean_preservation(self, rng):
        v = Volume3D(rng.random((10, 11, 13)))
        down = block_downsample(v, 3)
        padded = pad_to_multiple(v, 3)
        assert spatial_mean(down) == pytest.approx(spatial_mean(padded), rel=1e-12)

    @given(v=dyadic_volumes, factor=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_range_contraction(self, v, factor):
        out = block_downsample(v, factor)
        assert out.data.min() >= v.data.min()
        assert out.data.max() <= v.data.max()


class TestBlockUpsample:
    def test_factor_1_identity(self, rng):
        v = Volume3D(rng.random((3, 3, 3)))
        assert block_upsample(v, 1, (3, 3, 3)) is v

    def test_single_voxel_replication(self):
        v = Volume3D(np.full((1, 1, 1), 3.5))
        out = block_upsample(v, 2, (2, 2, 2))
        assert np.all(out.data == 3.5)

    def test_crop_to_target(self, rng):
        v = Volume3D(rng.random((2, 2, 2)))
        out = block_upsample(v, 3, (5, 4, 6))
        assert out.shape == (5, 4, 6)
        for x in range(5):
            for y in range(4):
                for z in range(6):
                    assert out.data[x, y, z] == v.data[x // 3, y // 3, z // 3]

    def test_target_too_large(self):
        v = Volume3D(np.zeros((2, 2, 2)))
        with pytest.raises(ShapeMismatchError):
            block_upsample(v, 2, (5, 4, 4))

    def test_down_then_up_fixes_constants(self):
        v = Volume3D(np.full((6, 6, 6), 1.75))
        out = block_upsample(block_downsample(v, 2), 2, (6, 6, 6))
        assert np.array_equal(out.data, v.data)

    def test_down_up_idempotent(self, rng):
        v = Volume3D(dyadic_array(rng, (8, 8, 8)))
        once = block_upsample(block_downsample(v, 2), 2, v.shape)
        twice = block_upsample(block_downsample(once, 2), 2, v.shape)
        assert np.array_equal(once.data, twice.data)


@pytest.mark.parametrize("func", [sliding_mean, sliding_mean_running_sum])
class TestSlidingMeans:
    def test_side_1_identity(self, func, rng):
        v = Volume3D(rng.random((4, 4, 4)))
        assert func(v, 1) is v

    def test_constant_exact(self, func):
        v = Volume3D(np.full((5, 6, 7), 0.1))
        out = func(v, 4)
        assert np.array_equal(out.data, v.data)

    @pytest.mark.parametrize("side", [2, 3, 4, 5])
    def test_matches_seven_loop_oracle(self, func, side):
        v = generate_phantom(PhantomSpec(kind="white_noise", shape=(12, 12, 12), level=1.0, rng_seed=17))
        out = func(v, side)
        ref = oracles.sliding_window_mean(v.data, side)
        np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-10)

    def test_side_larger_than_every_dimension_matches_oracle(self, func):
        v = generate_phantom(PhantomSpec(kind="white_noise", shape=(5, 7, 3), level=1.0, rng_seed=19))
        out = func(v, 9)
        ref = oracles.sliding_window_mean(v.data, 9)
        np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-10)

    def test_side_above_crossover_matches_oracle(self, func):
        assert 25 > coarse._SHIFT_ADD_MAX_SIDE
        v = generate_phantom(PhantomSpec(kind="white_noise", shape=(12, 14, 10), level=1.0, rng_seed=21))
        out = func(v, 25)
        ref = oracles.sliding_window_mean(v.data, 25)
        np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-10)

    def test_output_shape_unchanged(self, func, rng):
        v = Volume3D(rng.random((7, 5, 9)))
        assert func(v, 3).shape == v.shape

    @given(v=dyadic_volumes, side=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_range_contraction(self, func, v, side):
        out = func(v, side)
        assert out.data.min() >= v.data.min() - 1e-12
        assert out.data.max() <= v.data.max() + 1e-12


class TestKernelAgreement:
    """The running-sum ("integral") path and the default path both equal direct loop sums."""

    def test_integral_equals_direct_on_noise(self):
        v = generate_phantom(PhantomSpec(kind="white_noise", shape=(12, 12, 12), level=1.0, rng_seed=23))
        ref = oracles.sliding_window_mean(v.data, 5)
        for func in (sliding_mean, sliding_mean_running_sum):
            np.testing.assert_allclose(func(v, 5).data, ref, rtol=0, atol=1e-8)

    @given(v=dyadic_volumes, side=st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_integral_equals_direct_property(self, v, side):
        ref = oracles.sliding_window_mean(v.data, side)
        for func in (sliding_mean, sliding_mean_running_sum):
            np.testing.assert_allclose(func(v, side).data, ref, rtol=0, atol=1e-10)


class TestLinearity:
    @pytest.mark.parametrize(
        "kernel",
        [
            lambda v: block_downsample(v, 2),
            lambda v: sliding_mean(v, 3),
            lambda v: sliding_mean(v, 12),
        ],
    )
    def test_affine_commutes(self, kernel, rng):
        arr = rng.random((8, 8, 8))
        a, c = 2.5, -1.25
        direct = kernel(Volume3D(a * arr + c)).data
        mapped = a * kernel(Volume3D(arr)).data + c
        np.testing.assert_allclose(direct, mapped, rtol=0, atol=1e-10)
