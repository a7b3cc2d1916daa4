from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msc3d import (
    ComplexityMap,
    PhantomSpec,
    ScaleSchedule,
    Volume3D,
    generate_phantom,
    multiscale_run,
    overlap,
    read_npy,
)
from msc3d import coarse
from msc3d.coarse import block_sums, edge_pad
from msc3d.complexity import ScheduleInfeasibleError, complexity_map
from msc3d.errors import ShapeMismatchError

from . import oracles
from .conftest import dyadic_array, traced_peak

ALL_MODES = ("algorithm1", "block_cascade", "sliding_cascade")


class TestOverlap:
    def test_self_overlap_is_exactly_zero(self, rng):
        v = Volume3D(rng.random((6, 6, 6)))
        assert overlap(v, v) == 0.0

    def test_equal_volumes_distinct_arrays(self, rng):
        arr = rng.random((4, 4, 4))
        assert overlap(Volume3D(arr), Volume3D(arr.copy())) == 0.0

    def test_zeros_vs_ones(self):
        a = Volume3D(np.zeros((5, 3, 7)))
        b = Volume3D(np.ones((5, 3, 7)))
        assert overlap(a, b) == -0.5

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            overlap(Volume3D(rng.random((2, 2, 2))), Volume3D(rng.random((3, 2, 2))))

    def test_matches_difference_form(self, rng):
        a = Volume3D(rng.random((8, 8, 8)))
        b = Volume3D(rng.random((8, 8, 8)))
        ref = -0.5 * np.mean((a.data - b.data) ** 2)
        assert overlap(a, b) == pytest.approx(ref, rel=1e-12)

    def test_slabs_of_x_planes_match_difference_form(self, rng, monkeypatch):
        # 3 x-planes per slab, so the 11 planes make four slabs, the last one
        # short; the 10x5x6 volumes copied from shifted views of the array
        # make slabs of 4 planes, the last one short too
        monkeypatch.setattr(coarse, "SLAB_ELEMENTS", 3 * 6 * 7)
        a, b = rng.random((11, 6, 7)), rng.random((11, 6, 7))
        ref = -0.5 * np.mean((a - b) ** 2)
        assert overlap(Volume3D(a), Volume3D(b)) == pytest.approx(ref, rel=1e-12)
        ox = overlap(Volume3D(a[1:, :-1, :-1]), Volume3D(a[:-1, :-1, :-1]))
        assert ox == pytest.approx(-0.5 * np.mean((a[1:, :-1, :-1] - a[:-1, :-1, :-1]) ** 2), rel=1e-12)

    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(*(st.integers(2, 10),) * 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_non_positive_and_identity_property(self, seed, dims):
        r = np.random.default_rng(seed)
        a = Volume3D(r.random(dims))
        b = Volume3D(r.random(dims))
        o = overlap(a, b)
        assert o <= 0.0
        ref = -0.5 * np.mean((a.data - b.data) ** 2)
        assert o == pytest.approx(ref, rel=1e-12)


class TestComplexityMap:
    def test_constant_volume_zero_map(self):
        cmap = complexity_map(np.full((8, 8, 8), 3.0), (4, 4, 4), (2, 2, 2))
        assert np.all(cmap.values == 0.0)

    def test_stripe_cells_are_one_sixth(self):
        v = generate_phantom(PhantomSpec(kind="axis_stripes", shape=(8, 8, 8), level=1.0, period=1))
        cmap = complexity_map(v.data, (4, 4, 4), (4, 4, 4))
        np.testing.assert_allclose(cmap.values, 1.0 / 6.0, rtol=0, atol=1e-15)

    def test_grid_shape_rule(self, rng):
        cmap = complexity_map(rng.random((16, 16, 16)), (4, 4, 4), (2, 2, 2))
        assert cmap.grid_shape == (7, 7, 7)

    def test_matches_window_sweep_oracle(self):
        v = generate_phantom(PhantomSpec(kind="white_noise", shape=(16, 16, 16), level=1.0, rng_seed=12))
        cmap = complexity_map(v.data, (4, 4, 4), (2, 2, 2))
        ref = oracles.window_sweep_map(v.data, (4, 4, 4), (2, 2, 2))
        np.testing.assert_allclose(cmap.values, ref, rtol=0, atol=1e-12)

    def test_asymmetric_window_and_stride(self, rng):
        arr = rng.random((9, 11, 8))
        cmap = complexity_map(arr, (3, 4, 2), (2, 3, 1))
        ref = oracles.window_sweep_map(arr, (3, 4, 2), (2, 3, 1))
        assert cmap.grid_shape == ref.shape
        np.testing.assert_allclose(cmap.values, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "window, stride",
        [((3, 3, 3), (4, 5, 3)), ((4, 3, 5), (1, 1, 1))],
        ids=["stride_above_core", "stride_1"],
    )
    def test_strides_match_window_sweep_oracle(self, rng, window, stride):
        arr = rng.random((13, 11, 12))
        cmap = complexity_map(arr, window, stride)
        ref = oracles.window_sweep_map(arr, window, stride)
        assert cmap.grid_shape == ref.shape
        np.testing.assert_allclose(cmap.values, ref, rtol=0, atol=1e-12)

    def test_values_non_negative(self, rng):
        cmap = complexity_map(rng.random((10, 10, 10)), (3, 3, 3), (1, 1, 1))
        assert cmap.values.min() >= 0.0

    @pytest.mark.parametrize("slab", [None, 2 * 9 * 11], ids=["one_slab", "slabs_of_two_rows"])
    def test_cropped_view_sweeps_as_its_copy(self, rng, monkeypatch, slab):
        # algorithm1 sweeps a level cropped to its downsampled shape in place
        arr = rng.random((14, 12, 13))
        view = arr[:11, :9, :11]
        if slab is not None:
            monkeypatch.setattr(coarse, "SLAB_ELEMENTS", slab)
        got = complexity_map(view, (4, 3, 4), (2, 2, 3)).values
        assert np.array_equal(got, complexity_map(view.copy(), (4, 3, 4), (2, 2, 3)).values)
        np.testing.assert_allclose(got, oracles.window_sweep_map(view, (4, 3, 4), (2, 2, 3)), rtol=0, atol=1e-12)


class TestMultiscaleProfile:
    def test_constant_volume_zero_everywhere_all_modes(self):
        v = Volume3D(np.full((36, 36, 36), 2.5))
        for mode in ALL_MODES:
            prof = multiscale_run(v, ScaleSchedule(mode=mode)).profile
            assert [e.complexity for e in prof] == [0.0] * 6

    def test_stripes_factor_1_is_one_sixth(self):
        v = generate_phantom(PhantomSpec(kind="axis_stripes", shape=(8, 8, 8), level=1.0, period=1))
        prof = multiscale_run(v, ScaleSchedule(factors=(1,))).profile
        assert prof[0].complexity == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_algorithm1_matches_naive_oracle(self):
        v = generate_phantom(PhantomSpec(kind="white_noise", shape=(20, 17, 23), level=1.0, rng_seed=31))
        sched = ScaleSchedule(factors=(1, 2, 4, 8))
        run = multiscale_run(v, sched)
        ref_values, ref_maps = oracles.algorithm1(v.data, sched.factors, sched.window, sched.stride)
        for entry, ref in zip(run.profile, ref_values):
            assert entry.complexity == pytest.approx(ref, abs=1e-12)
        for cmap, ref_map in zip(run.maps, ref_maps):
            assert cmap.grid_shape == ref_map.shape
            np.testing.assert_allclose(cmap.values, ref_map, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "shape, factors",
        [((35, 41, 37), (1, 2, 4, 8, 16)), ((20, 17, 23), (1, 3, 6)), ((20, 17, 23), (1, 4, 6))],
        ids=["non_divisible", "chain_1_3_6", "non_chain_1_4_6"],
    )
    def test_algorithm1_block_pyramid_matches_naive_oracle(self, shape, factors):
        v = generate_phantom(PhantomSpec(kind="white_noise", shape=shape, level=1.0, rng_seed=43))
        sched = ScaleSchedule(factors=factors)
        run = multiscale_run(v, sched)
        ref_values, ref_maps = oracles.algorithm1(v.data, sched.factors, sched.window, sched.stride)
        for entry, ref in zip(run.profile, ref_values):
            assert entry.complexity == pytest.approx(ref, abs=1e-12)
        for cmap, ref_map in zip(run.maps, ref_maps):
            assert cmap.grid_shape == ref_map.shape
            np.testing.assert_allclose(cmap.values, ref_map, rtol=0, atol=1e-12)

    def test_block_cascade_matches_loop_oracle(self):
        v = generate_phantom(PhantomSpec(kind="white_noise", shape=(16, 16, 16), level=1.0, rng_seed=37))
        sched = ScaleSchedule(factors=(1, 2, 4, 8), mode="block_cascade")
        run = multiscale_run(v, sched)
        assert run.maps == ()
        ref = oracles.block_cascade(v.data, sched.factors)
        for entry, r in zip(run.profile, ref):
            assert entry.complexity == pytest.approx(r, rel=1e-10, abs=1e-15)

    # A slab of one block row, and one slab covering the whole lattice.
    SLAB_CHUNKS = {"row_slabs": 1, "one_slab": 1 << 62}
    STREAM_SHAPES = [(13, 17, 11), (7, 9, 5), (35, 41, 37)]

    @pytest.mark.parametrize("chunk", sorted(SLAB_CHUNKS))
    @pytest.mark.parametrize("factors", [(1, 2, 4, 8), (1, 3, 9), (2, 4)], ids=str)
    @pytest.mark.parametrize("shape", STREAM_SHAPES, ids=str)
    def test_streamed_block_cascade_matches_loop_oracle(self, shape, factors, chunk, monkeypatch):
        """The block step streams its lattice through slabs of whole block
        rows; however the slabs fall, the profile is the loop oracle's."""
        monkeypatch.setattr(coarse, "SLAB_ELEMENTS", self.SLAB_CHUNKS[chunk])
        v = generate_phantom(PhantomSpec(kind="white_noise", shape=shape, level=1.0, rng_seed=47))
        prof = multiscale_run(v, ScaleSchedule(factors=factors, mode="block_cascade")).profile
        ref = oracles.block_cascade(v.data, factors)
        assert [e.scale_factor for e in prof] == list(factors)
        for entry, r in zip(prof, ref):
            assert entry.complexity == pytest.approx(r, rel=1e-12, abs=0)

    @pytest.mark.parametrize("chunk", sorted(SLAB_CHUNKS))
    @pytest.mark.parametrize("inc", [2, 3, 4, 8])
    @pytest.mark.parametrize("shape", STREAM_SHAPES, ids=str)
    def test_streamed_block_step_means_are_exact(self, shape, inc, chunk, rng, monkeypatch):
        """Each block mean is that of the whole edge-padded relative copy, to
        the bit, with or without the squared differences."""
        monkeypatch.setattr(coarse, "SLAB_ELEMENTS", self.SLAB_CHUNKS[chunk])
        current = 1e6 + 1e-3 * rng.random(shape)
        ref = float(current.flat[0])
        means, total = coarse.block_means(current, inc, ref, difference=True)
        padded = edge_pad(current, tuple(math.ceil(dim / inc) * inc for dim in shape), ref)
        expected = block_sums(padded, inc) / inc**3
        assert means.shape == expected.shape
        assert np.array_equal(means, expected)
        x, y, z = shape
        up = expected.repeat(inc, 0).repeat(inc, 1).repeat(inc, 2)[:x, :y, :z]
        assert total == pytest.approx(np.sum((padded[:x, :y, :z] - up) ** 2), rel=1e-12, abs=0)
        means_only, no_total = coarse.block_means(current, inc, ref)
        assert no_total is None
        assert np.array_equal(means_only, expected)

    @pytest.mark.parametrize("factors", [(1, 2, 4), (1, 3, 9)], ids=str)
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_one_plane_slabs_match_loop_oracles(self, mode, factors, monkeypatch):
        """With the one slab size shrunk to a single x-plane, every streamed
        kernel (window means, overlaps, squared differences and block steps)
        walks many slabs, and every mode still gives its oracle's profile."""
        shape = (13, 17, 11)
        monkeypatch.setattr(coarse, "SLAB_ELEMENTS", shape[1] * shape[2])
        v = generate_phantom(PhantomSpec(kind="white_noise", shape=shape, level=1.0, rng_seed=53))
        sched = ScaleSchedule(factors=factors, mode=mode)
        run = multiscale_run(v, sched)
        if mode == "algorithm1":
            ref, ref_maps = oracles.algorithm1(v.data, factors, sched.window, sched.stride)
            for cmap, ref_map in zip(run.maps, ref_maps, strict=True):
                np.testing.assert_allclose(cmap.values, ref_map, rtol=0, atol=1e-12)
            tolerance = {"abs": 1e-12}
        elif mode == "block_cascade":
            ref = oracles.block_cascade(v.data, factors)
            tolerance = {"rel": 1e-12, "abs": 0}
        else:
            ref, current, prev = [], v.data, 1
            for factor in factors:
                means = oracles.sliding_window_mean(current, factor // prev)
                ref.append(0.5 * np.mean((current - means) ** 2))
                current, prev = means, factor
            tolerance = {"rel": 1e-10, "abs": 1e-15}
        assert [e.complexity for e in run.profile] == pytest.approx(ref, **tolerance)

    @pytest.mark.parametrize("shape", [(64, 64, 64), (61, 73, 61)], ids=str)
    def test_block_cascade_allocates_less_than_the_volume(self, shape, rng):
        """A warm block-cascade run holds no full-size field: its traced
        allocation peak stays below the volume's own size."""
        v = Volume3D(rng.random(shape))
        schedule = ScaleSchedule(mode="block_cascade")
        multiscale_run(v, schedule)
        _, peak = traced_peak(lambda: multiscale_run(v, schedule))
        assert peak < v.data.nbytes

    @pytest.mark.parametrize("shape", [(64, 64, 64), (61, 73, 61)], ids=str)
    def test_sliding_cascade_allocates_under_one_and_a_half_volumes(self, shape, rng):
        """A warm sliding-cascade run holds one full-size field, the relative
        copy each step writes its window means over, plus slab buffers."""
        v = Volume3D(rng.random(shape))
        schedule = ScaleSchedule(mode="sliding_cascade")
        multiscale_run(v, schedule)
        _, peak = traced_peak(lambda: multiscale_run(v, schedule))
        assert peak < 1.5 * v.data.nbytes

    @pytest.mark.parametrize("source", ["constructed", "read_npy"])
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_run_leaves_the_volume_as_it_was(self, mode, source, rng, tmp_path):
        """A volume made through the public API is read-only, and a run in
        any mode leaves its data as it was, to the bit: the sliding cascade
        makes its running field in a copy."""
        arr = 1e5 + rng.random((13, 11, 9))
        if source == "read_npy":
            np.save(tmp_path / "v.npy", arr)
            v = read_npy(tmp_path / "v.npy")
        else:
            v = Volume3D(arr.copy())
        multiscale_run(v, ScaleSchedule(factors=(1, 2, 4), mode=mode))
        assert not v.data.flags.writeable
        assert np.array_equal(v.data.view(np.uint64), arr.view(np.uint64))

    @pytest.mark.parametrize(
        ("shape", "factors", "volumes"),
        [((128, 128, 128), ScaleSchedule().factors, 0.5), ((121, 145, 121), ScaleSchedule().factors, 0.4)]
        + [
            (shape, factors, 1.0)
            for shape in [(64, 64, 64), (61, 73, 61)]
            for factors in [(1, 2, 4, 8, 16, 32), (1, 3, 9), (1, 3, 4), (1, 4, 6)]
        ],
        ids=str,
    )
    def test_algorithm1_makes_no_full_size_copy(self, shape, factors, volumes, rng):
        """A warm algorithm1 run pads the volume a slab at a time for the
        levels that read it, so besides its input it holds only coarse
        levels, maps and slab buffers."""
        v = Volume3D(rng.random(shape))
        schedule = ScaleSchedule(factors=factors)
        multiscale_run(v, schedule)
        _, peak = traced_peak(lambda: multiscale_run(v, schedule))
        assert peak < volumes * v.data.nbytes

    def test_sliding_cascade_matches_direct_recompute(self):
        from msc3d import sliding_mean

        v = generate_phantom(PhantomSpec(kind="white_noise", shape=(12, 12, 12), level=1.0, rng_seed=41))
        sched = ScaleSchedule(factors=(1, 2, 4), mode="sliding_cascade")
        prof = multiscale_run(v, sched).profile
        current = v
        expected = []
        for inc in (1, 2, 2):
            coarse = sliding_mean(current, inc)
            expected.append(0.5 * np.mean((current.data - coarse.data) ** 2))
            current = coarse
        for entry, ref in zip(prof, expected):
            assert entry.complexity == pytest.approx(ref, rel=1e-10, abs=1e-15)

    @pytest.mark.parametrize(
        "shape, factors",
        [
            ((13, 17, 11), (1, 12)),
            ((7, 9, 5), (1, 2, 4, 8, 16)),
            ((15, 11, 13), (1, 3, 9)),
        ],
        ids=["side_above_shift_add", "side_above_dims", "odd_sides"],
    )
    def test_sliding_cascade_matches_recompute_on_odd_shapes(self, shape, factors):
        """The cascade's in-place steps give what a fresh ``sliding_mean`` of
        each step's field gives: a side on the running-sum path, sides larger
        than a dimension and odd sides, on shapes that are neither cubic nor
        even."""
        from msc3d import sliding_mean

        v = generate_phantom(PhantomSpec(kind="white_noise", shape=shape, level=1.0, rng_seed=43))
        prof = multiscale_run(v, ScaleSchedule(factors=factors, mode="sliding_cascade")).profile
        current = v
        expected = []
        prev = 1
        for factor in factors:
            coarse = sliding_mean(current, factor // prev)
            expected.append(0.5 * np.mean((current.data - coarse.data) ** 2))
            current, prev = coarse, factor
        for entry, ref in zip(prof, expected):
            assert entry.complexity == pytest.approx(ref, rel=1e-10, abs=1e-15)

    def test_complexity_is_abs_overlap(self, rng):
        v = Volume3D(rng.random((16, 16, 16)))
        for mode in ALL_MODES:
            prof = multiscale_run(v, ScaleSchedule(factors=(1, 2, 4), mode=mode)).profile
            for e in prof:
                assert e.overlap <= 0.0
                assert e.complexity == abs(e.overlap)

    def test_entries_in_schedule_order(self, rng):
        v = Volume3D(rng.random((16, 16, 16)))
        prof = multiscale_run(v, ScaleSchedule(factors=(1, 4, 8))).profile
        assert [(e.scale_index, e.scale_factor) for e in prof] == [(0, 1), (1, 4), (2, 8)]

    def test_infeasible_factor(self, rng):
        v = Volume3D(rng.random((8, 8, 8)))
        with pytest.raises(ScheduleInfeasibleError):
            multiscale_run(v, ScaleSchedule(factors=(1, 8)))

    def test_unindexable_block_lattice_names_the_factor(self, rng):
        # The second step's ratio, 10**12, pads the 4^3 lattice of the first
        # to one block of 10**36 voxels, beyond any array index.
        v = Volume3D(rng.random((8, 8, 8)))
        with pytest.raises(ScheduleInfeasibleError) as excinfo:
            multiscale_run(v, ScaleSchedule(factors=(2, 2 * 10**12), mode="block_cascade"))
        assert str(excinfo.value) == (
            "factor 2000000000000: pads the lattice (4, 4, 4) to (1000000000000, 1000000000000, 1000000000000), "
            f"one row of whose blocks takes {8 * 10**36} bytes, more than memory holds"
        )

    def test_non_integer_cascade_ratio(self, rng):
        v = Volume3D(rng.random((10, 10, 10)))
        with pytest.raises(ScheduleInfeasibleError):
            multiscale_run(v, ScaleSchedule(factors=(2, 5), mode="block_cascade"))

    def test_degenerate_window_single_cell(self, rng):
        v = Volume3D(rng.random((4, 4, 4)))
        cmap = complexity_map(v.data, (4, 4, 4), (4, 4, 4))
        assert cmap.grid_shape == (1, 1, 1)
        prof = multiscale_run(v, ScaleSchedule(factors=(1,), window=(4, 4, 4), stride=(4, 4, 4))).profile
        assert prof[0].complexity == cmap.values[0, 0, 0]

    def test_factor_1_equals_native_shift_overlap(self, rng):
        # mode agreement at the finest step: one full-volume window
        arr = rng.random((6, 6, 6))
        prof = multiscale_run(
            Volume3D(arr), ScaleSchedule(factors=(1,), window=(6, 6, 6), stride=(1, 1, 1))
        ).profile
        ox, oy, oz = oracles.shift_overlaps(arr)
        assert prof[0].complexity == pytest.approx(-(ox + oy + oz) / 3.0, abs=1e-15)

    def test_run_reports_record_clipping(self, rng):
        v = Volume3D(rng.random((8, 8, 8)))
        result = multiscale_run(v, ScaleSchedule(factors=(1, 4)))
        rep = result.scale_reports[1]
        assert rep["downsampled_shape"] == (2, 2, 2)
        assert rep["window_used"] == (2, 2, 2)
        assert rep["degenerate_sweep"] is True
        assert result.scale_reports[0]["window_used"] == (4, 4, 4)
        assert result.scale_reports[0]["degenerate_sweep"] is False


class TestInvariances:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_offset_invariance_exact(self, mode, rng):
        arr = dyadic_array(rng, (16, 16, 16))
        shift = 3.25
        sched = ScaleSchedule(factors=(1, 2, 4), mode=mode)
        base = multiscale_run(Volume3D(arr), sched).profile
        moved = multiscale_run(Volume3D(arr + shift), sched).profile
        assert [e.complexity for e in base] == [e.complexity for e in moved]

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_quadratic_intensity_scaling(self, mode, rng):
        arr = rng.random((16, 16, 16))
        gain = 1.7
        sched = ScaleSchedule(factors=(1, 2, 4), mode=mode)
        base = multiscale_run(Volume3D(arr), sched).profile
        scaled = multiscale_run(Volume3D(gain * arr), sched).profile
        for e_base, e_scaled in zip(base, scaled):
            if e_base.complexity > 0:
                assert e_scaled.complexity == pytest.approx(gain**2 * e_base.complexity, rel=1e-10)

    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(8, 20), st.integers(8, 20), st.integers(8, 20)),
        amplitude=st.floats(1e-3, 1.0),
        offset=st.floats(-1e6, 1e6),
    )
    @settings(max_examples=40, deadline=None)
    @example(seed=208, dims=(12, 8, 15), amplitude=1e-3, offset=1e6)
    def test_offset_invariance_property(self, seed, dims, amplitude, offset):
        """A DC offset moves no per-scale complexity beyond float64 rounding.

        The reference is ``moved - offset``. Where the offset dominates the
        texture that subtraction is exact, so any difference is the
        pipeline's rounding, not the data's. The explicit example failed
        ``algorithm1`` at 2.7e-6 when its block means carried the offset.
        """
        texture = amplitude * np.random.default_rng(seed).random(dims)
        moved = texture + offset
        for mode in ALL_MODES:
            sched = ScaleSchedule(factors=(1, 2, 4), mode=mode)
            ref = [e.complexity for e in multiscale_run(Volume3D(moved - offset), sched).profile]
            got = [e.complexity for e in multiscale_run(Volume3D(moved), sched).profile]
            np.testing.assert_allclose(got, ref, rtol=1e-6, atol=0, err_msg=mode)


    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(8, 20), st.integers(8, 20), st.integers(8, 20)),
        offset=st.floats(-1e6, 1e6),
    )
    @settings(max_examples=40, deadline=None)
    @example(seed=208, dims=(12, 8, 15), offset=1e6)
    def test_block_modes_exact_under_offset(self, seed, dims, offset):
        """The block modes take their block means relative to the first
        voxel, so a texture of 1e-3 on an offset of up to 1e6 keeps every
        per-scale complexity to float64 rounding. The explicit example
        failed ``block_cascade`` at 1.5e-7 when its block means carried the
        offset."""
        texture = 1e-3 * np.random.default_rng(seed).random(dims)
        moved = texture + offset
        for mode in ("algorithm1", "block_cascade"):
            sched = ScaleSchedule(factors=(1, 2, 4), mode=mode)
            ref = [e.complexity for e in multiscale_run(Volume3D(moved - offset), sched).profile]
            got = [e.complexity for e in multiscale_run(Volume3D(moved), sched).profile]
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0, err_msg=mode)

    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(8, 20), st.integers(8, 20), st.integers(8, 20)),
        offset=st.floats(-1e6, 1e6),
    )
    @settings(max_examples=30, deadline=None)
    @example(seed=208, dims=(12, 8, 15), offset=1e6)
    def test_sliding_cascade_exact_under_offset(self, seed, dims, offset):
        """The sliding cascade carries its field relative to the first
        voxel, so a texture of 1e-3 on an offset of up to 1e6 keeps every
        per-scale complexity to float64 rounding. The explicit example
        failed at 1.3e-8 when each step's window means were taken relative
        to the step's own first voxel and the offset was added back."""
        texture = 1e-3 * np.random.default_rng(seed).random(dims)
        moved = texture + offset
        sched = ScaleSchedule(factors=(1, 2, 4), mode="sliding_cascade")
        ref = [e.complexity for e in multiscale_run(Volume3D(moved - offset), sched).profile]
        got = [e.complexity for e in multiscale_run(Volume3D(moved), sched).profile]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


class TestScaleSchedule:
    def test_defaults(self):
        sched = ScaleSchedule()
        assert sched.factors == (1, 2, 4, 8, 16, 32)
        assert sched.mode == "algorithm1"
        assert sched.window == (4, 4, 4)
        assert sched.stride == (2, 2, 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"factors": (2, 2)},
            {"factors": (4, 2)},
            {"factors": (0, 1)},
            {"factors": ()},
            {"mode": "bogus"},
            {"window": (1, 4, 4)},
            {"stride": (0, 1, 1)},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ScaleSchedule(**kwargs)

    @pytest.mark.parametrize(
        ("field", "values", "shown"),
        [
            ("factors", (1, 2.5), "2.5"),
            ("factors", (1.9, 4), "1.9"),
            ("window", (4.7, 4, 4), "4.7"),
            ("stride", (2, np.float32(1.5), 2), "1.5"),
            ("stride", (2, 2, math.inf), "inf"),
            ("factors", (1, math.nan), "nan"),
            ("factors", "16", "'16'"),
            ("window", "444", "'444'"),
            ("stride", (2, b"2", 2), "b'2'"),
            ("factors", (True, 2), "True"),
            ("window", (4, np.bool_(True), 4), "True"),
        ],
    )
    def test_non_whole_value_raises_naming_it(self, field, values, shown):
        # Truncated, 2.5 would run factor 2 under the caller's label; read
        # as digits, "16" would run factors 1 and 6, and True would run 1.
        with pytest.raises(ValueError, match=rf"^{field} must be whole numbers, got .*{shown}"):
            ScaleSchedule(**{field: values})

    def test_whole_floats_become_ints(self):
        sched = ScaleSchedule(factors=(1, 2.0), window=(4.0, np.int64(3), 4), stride=(np.float64(2), 1, 1))
        assert (sched.factors, sched.window, sched.stride) == ((1, 2), (4, 3, 4), (2, 1, 1))
        assert all(type(n) is int for n in sched.factors + sched.window + sched.stride)

    def test_map_type_requires_3d(self):
        with pytest.raises(ValueError):
            ComplexityMap(scale_factor=2, values=np.zeros((2, 2)))
