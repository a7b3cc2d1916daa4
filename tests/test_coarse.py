from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msc3d import PhantomSpec, Volume3D, block_downsample, generate_phantom, overlap, sliding_mean
from msc3d import coarse

from . import oracles
from .conftest import dyadic_array, traced_peak

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

    def test_factor_0_refused(self, rng):
        with pytest.raises(ValueError, match=r"^factor must be >= 1, got 0$"):
            block_downsample(Volume3D(rng.random((4, 4, 4))), 0)

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

    @pytest.mark.parametrize("factor", [2, 5])
    def test_non_divisible_matches_loop_oracle_exactly(self, factor, rng):
        arr = rng.random((11, 13, 7))
        out = block_downsample(Volume3D(arr), factor)
        ref = oracles.block_means(oracles.pad_replicate(arr, factor), factor)
        assert np.array_equal(out.data, ref)

    def test_offset_comes_off_the_means(self, rng):
        arr = rng.random((5, 7, 9))
        for factor in (1, 2, 3):
            shape = tuple(-(-dim // factor) * factor for dim in arr.shape)
            out = coarse.block_sums(coarse.edge_pad(arr, shape, 0.75), factor) / factor**3
            ref = oracles.block_means(oracles.pad_replicate(arr, factor), factor) - 0.75
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_streamed_block_sums_are_numpy_whole_block_sums(self, factor, rng, monkeypatch):
        """With slabs of two block rows, seven rows take four slabs, and each
        block mean is still numpy's sum of the whole block, divided, to the bit."""
        shape = (7 * factor, 5 * factor, 3 * factor)
        monkeypatch.setattr(coarse, "SLAB_ELEMENTS", 2 * factor * shape[1] * shape[2])
        arr = 1e3 + rng.random(shape)
        expected = np.empty((7, 5, 3))
        for index in np.ndindex(expected.shape):
            expected[index] = arr[tuple(slice(i * factor, (i + 1) * factor) for i in index)].sum()
        means, total = coarse.block_means(arr, factor)
        assert total is None
        assert np.array_equal(means, expected / factor**3)

    @pytest.mark.parametrize("shape", [(64, 64, 64), (61, 73, 61)], ids=str)
    def test_non_divisible_allocates_under_half_a_volume(self, shape, rng):
        """Padding goes a slab at a time, so no padded copy of the volume is made."""
        v = Volume3D(rng.random(shape))
        block_downsample(v, 3)
        _, peak = traced_peak(lambda: block_downsample(v, 3))
        assert peak < 0.5 * v.data.nbytes

    # (shape, factor, ref) on a 5x7x6 array: each shape pads x, y and z
    # past the array, some by more than a whole block.
    PADDED_SHAPES = [
        ((12, 8, 9), 2, 0.0),
        ((16, 16, 16), 4, 1e3),
        ((15, 9, 12), 3, 1000.5),
        ((18, 12, 12), 6, 999.25),
        ((7, 8, 9), 1, 1e3),
    ]

    @pytest.mark.parametrize("slab_elements", [None, 1], ids=["default_slabs", "one_row_slabs"])
    @pytest.mark.parametrize(("shape", "factor", "ref"), PADDED_SHAPES, ids=str)
    def test_means_to_a_padded_shape_are_those_of_the_edge_padded_array(
        self, shape, factor, ref, slab_elements, rng, monkeypatch
    ):
        """``block_means(arr, f, ref, shape=s)`` is ``block_means`` of ``arr``
        edge-padded to ``s`` less ``ref``, to the bit. With slabs of one
        block row, whole slabs start past the array's last x-plane."""
        if slab_elements is not None:
            monkeypatch.setattr(coarse, "SLAB_ELEMENTS", slab_elements)
        arr = 1e3 + rng.random((5, 7, 6))
        means, total = coarse.block_means(arr, factor, ref, shape=shape)
        assert total is None
        assert np.array_equal(means, coarse.block_means(coarse.edge_pad(arr, shape, ref), factor)[0])
        # The difference is taken over the array's own voxels.
        _, total = coarse.block_means(arr, factor, ref, difference=True, shape=shape)
        up = np.repeat(np.repeat(np.repeat(means, factor, 0), factor, 1), factor, 2)[:5, :7, :6]
        assert total == pytest.approx(float(((arr - ref - up) ** 2).sum()), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize(("shape", "factor", "ref"), PADDED_SHAPES, ids=str)
    def test_downsample_to_a_padded_shape_is_that_of_the_edge_padded_volume(self, shape, factor, ref, rng):
        v = Volume3D(1e3 + rng.random((5, 7, 6)))
        out = block_downsample(v, factor, ref, shape)
        assert np.array_equal(out.data, block_downsample(Volume3D(coarse.edge_pad(v.data, shape, ref)), factor).data)
        # The defaults pad to the volume's own blocks, and factor 1 is the volume.
        assert block_downsample(v, 1) is v
        default = block_downsample(v, factor)
        assert np.array_equal(default.data, oracles.block_means(oracles.pad_replicate(v.data, factor), factor))

    def test_mean_preservation(self, rng):
        v = Volume3D(rng.random((10, 11, 13)))
        down = block_downsample(v, 3)
        padded = oracles.pad_replicate(v.data, 3)
        assert np.mean(down.data) == pytest.approx(np.mean(padded), rel=1e-12)

    @given(v=dyadic_volumes, factor=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_range_contraction(self, v, factor):
        out = block_downsample(v, factor)
        assert out.data.min() >= v.data.min()
        assert out.data.max() <= v.data.max()


@pytest.mark.parametrize("func", [sliding_mean, sliding_mean_running_sum])
class TestSlidingMeans:
    def test_side_1_identity(self, func, rng):
        v = Volume3D(rng.random((4, 4, 4)))
        assert func(v, 1) is v

    def test_side_0_refused(self, func, rng):
        with pytest.raises(ValueError, match=r"^side must be >= 1, got 0$"):
            func(Volume3D(rng.random((4, 4, 4))), 0)

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

    @pytest.mark.parametrize("side", [2, 3, 5, 12])
    def test_slabs_of_x_planes_match_oracle(self, func, side, monkeypatch):
        # 3 x-planes per slab, so the 11 planes make four slabs, the last one short
        monkeypatch.setattr(coarse, "SLAB_ELEMENTS", 3 * 6 * 7)
        v = generate_phantom(PhantomSpec(kind="white_noise", shape=(11, 6, 7), level=1.0, rng_seed=29))
        out = func(v, side)
        ref = oracles.sliding_window_mean(v.data, side)
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

    @pytest.mark.parametrize("side", [11, 16, 40])
    def test_axis0_running_sum_is_cumsum_to_the_bit(self, rng, side):
        # x streams plane-wise adds through a ring, the last axis takes
        # np.cumsum; on the transposed volume both add the same values in
        # the same order
        a = rng.normal(size=(23, 9, 14)) + 1e3
        assert side > coarse._SHIFT_ADD_MAX_SIDE
        got = np.empty_like(a)
        # one slab of every plane, with a ring that holds every running sum
        coarse._x_running_sums(a, 0, a.shape[0], side, np.empty_like(a), got)
        t = np.ascontiguousarray(a.transpose(2, 1, 0))
        ref = np.empty_like(t)
        for step in coarse._axis_window_steps(t, 2, side, ref, np.empty_like(t)):
            step()
        assert np.array_equal(got, ref.transpose(2, 1, 0))


class TestInPlaceKernel:
    """``window_means_in_place`` equals an exact loop oracle to the bit, on
    both side paths, and returns the squared difference that ``overlap``
    sums."""

    @pytest.mark.parametrize("running_sum", [False, True], ids=["shift_add", "running_sum"])
    def test_exact_oracle_agrees_with_seven_loop_oracle(self, running_sum, rng):
        arr = rng.random((7, 6, 5))
        for side in (2, 3, 12):
            ref = oracles.sliding_window_mean(arr, side)
            got = oracles.separable_window_means(arr, side, running_sum)
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("side", [2, 3, 12, 25])
    @pytest.mark.parametrize("running_sum", [False, True], ids=["shift_add", "running_sum"])
    @pytest.mark.parametrize(
        "shape, slab_planes",
        [
            ((11, 6, 7), 1),
            ((11, 6, 7), 3),
            ((5, 9, 8), None),
            ((1, 6, 7), None),
            ((6, 1, 7), None),
            ((6, 7, 1), None),
            ((1, 1, 5), None),
        ],
        ids=["one_plane_slabs", "three_plane_slabs", "one_slab", "one_plane", "one_row", "one_column", "one_line"],
    )
    def test_matches_exact_loop_oracle(self, shape, slab_planes, running_sum, side, rng, monkeypatch):
        # One-plane slabs put every side above the slab's plane count; sides
        # 12 and 25 are above nx on every shape. A y or z extent of 1 leaves
        # the small-side sums along that axis no shift to add.
        monkeypatch.setattr(coarse, "_SHIFT_ADD_MAX_SIDE", 1 if running_sum else 25)
        if slab_planes:
            monkeypatch.setattr(coarse, "SLAB_ELEMENTS", slab_planes * shape[1] * shape[2])
        arr = rng.normal(size=shape) + 1e3
        field = arr.copy()
        total = coarse.window_means_in_place(field, side)
        assert np.array_equal(field, oracles.separable_window_means(arr, side, running_sum))
        assert -0.5 * (total / arr.size) + 0.0 == overlap(Volume3D(arr), Volume3D(field))
        means_only = arr.copy()
        assert coarse.window_means_in_place(means_only, side, difference=False) is None
        assert np.array_equal(means_only, field)

    def test_huge_side_allocates_nothing_that_grows_with_it(self, rng):
        # The running-sum path reads no list of shifts, so none is built.
        side = 10**6
        arr = rng.normal(size=(2, 2, 2)) + 1e3
        field = arr.copy()
        _, peak = traced_peak(lambda: coarse.window_means_in_place(field, side))
        assert peak < 1_000_000
        assert np.array_equal(field, oracles.separable_window_means(arr, side, True))


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
