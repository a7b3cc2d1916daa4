from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from msc3d import (
    benjamini_hochberg,
    pearson_regression,
    table_to_csv,
    table_to_text,
)
from msc3d.npy_io import ManifestEntry
from msc3d.stats import (
    P_CLAMP,
    DegenerateVarianceError,
    OutOfRangeError,
    TooFewPointsError,
    _t_tail,
    correlate_columns,
    log_log_columns,
)

from . import oracles


def make_manifest(ages):
    return tuple(ManifestEntry(f"s{i}", f"/data/s{i}.npy", age) for i, age in enumerate(ages))


def scale0_pairs(manifest, complexity_of):
    """(ln C, ln age) pairs at scale 0 of the subjects in ``complexity_of``, in manifest order."""
    complexity = np.array([[c] for c in complexity_of.values()])
    columns = log_log_columns(tuple(complexity_of), complexity, manifest)
    usable = columns.usable(0)
    return list(zip(columns.ln_c[usable, 0].tolist(), columns.ln_age[usable].tolist()))


def linear_pairs(seed):
    """200 pairs with r near 0.7."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 2.0, 200)
    y = 0.7 * x + rng.normal(0.0, 1.5, 200)
    return list(zip(x.tolist(), y.tolist()))


def near_zero_pairs(seed):
    """300 pairs with r near 1e-8: y is the part of an independent z that is
    orthogonal to x - mean(x), plus 1e-8 (x - mean(x))."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, 300)
    z = rng.normal(0.0, 1.0, 300)
    dx = x - x.mean()
    y = z - (z @ dx) / (dx @ dx) * dx + 1e-8 * dx
    return list(zip(x.tolist(), y.tolist()))


def betainc_mp(t_sq, df):
    """I_x(df/2, 1/2) at x = df/(df + t^2), to 60 digits."""
    with mp.workdps(60):
        x = mp.mpf(df) / (df + mp.mpf(t_sq))
        return float(mp.betainc(mp.mpf(df) / 2, mp.mpf(0.5), 0, x, regularized=True))


def correlation_rows(manifest, complexities):
    """Correlation table of subjects s0, s1, ..., whose row of ``complexities``
    holds one value per scale; scale k has factor 2**k."""
    complexity = np.array(complexities, dtype=np.float64)
    columns = log_log_columns([f"s{i}" for i in range(len(complexity))], complexity, manifest)
    scales = range(complexity.shape[1])
    return correlate_columns(columns, scales, [2**k for k in scales])


class TestLogLogPairs:
    def test_e_powers(self):
        manifest = make_manifest([math.e**3])
        assert scale0_pairs(manifest, {"s0": math.e**2}) == [(pytest.approx(2.0), pytest.approx(3.0))]

    def test_zero_complexity_excluded(self):
        manifest = make_manifest([50.0, 60.0])
        pairs = scale0_pairs(manifest, {"s0": 0.0, "s1": 1.0})
        assert len(pairs) == 1
        assert pairs[0][1] == pytest.approx(math.log(60.0))

    def test_identity_relation(self):
        ages = [float(a) for a in range(50, 60)]
        manifest = make_manifest(ages)
        pairs = scale0_pairs(manifest, {f"s{i}": age for i, age in enumerate(ages)})
        for x, y in pairs:
            assert x == y

    def test_empty_after_filtering(self):
        # scale 0 is all zero, so nothing is left of it to fit
        manifest = make_manifest([50.0, 60.0, 70.0])
        rows = correlation_rows(manifest, [[0.0, 1.0], [0.0, 2.0], [0.0, 4.0]])
        assert [row.scale_index for row in rows] == [1]

    def test_manifest_order(self):
        manifest = make_manifest([50.0, 60.0, 70.0])
        pairs = scale0_pairs(manifest, {"s2": 3.0, "s0": 1.0, "s1": 2.0})
        assert [x for x, _ in pairs] == [pytest.approx(math.log(c)) for c in (1.0, 2.0, 3.0)]


class TestLogLogColumns:
    def test_aligns_to_manifest_and_lists_unknown_subjects(self):
        manifest = make_manifest([50.0, 60.0, 70.0, 80.0])
        complexity = np.array([[4.0, np.nan], [9.0, 0.0], [1.0, 2.0], [5.0, 5.0]])
        columns = log_log_columns(("s2", "ghost", "s0", "late"), complexity, manifest)
        assert columns.missing == ("s1", "s3")
        assert columns.unknown == ("ghost", "late")
        assert columns.ln_age.tolist() == [math.log(50.0), math.log(70.0)]
        assert columns.ln_c[:, 0].tolist() == [math.log(1.0), math.log(4.0)]
        assert columns.ln_c[0, 1] == math.log(2.0) and np.isnan(columns.ln_c[1, 1])
        assert columns.usable(1).tolist() == [True, False]

    def test_zero_and_missing_complexity_are_not_usable(self):
        manifest = make_manifest([50.0, 60.0, 70.0])
        complexity = np.array([[0.0], [np.nan], [3.0]])
        columns = log_log_columns(("s0", "s1", "s2"), complexity, manifest)
        usable = columns.usable(0)
        assert columns.ln_age[usable].tolist() == [math.log(70.0)]
        assert columns.ln_c[usable, 0].tolist() == [math.log(3.0)]
        assert not log_log_columns(("s0",), np.zeros((1, 1)), manifest).usable(0).any()


class TestPearsonRegression:
    def test_exact_linear(self):
        fit = pearson_regression([(1, 2), (2, 4), (3, 6)])
        assert fit.r == 1.0
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(0.0)

    def test_symmetric_tent(self):
        fit = pearson_regression([(1, 1), (2, 2), (3, 1)])
        assert fit.r == 0.0
        assert fit.slope == 0.0
        assert fit.p == pytest.approx(1.0)

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            pearson_regression([(1, 1), (2, 2)])

    def test_degenerate_x(self):
        with pytest.raises(DegenerateVarianceError):
            pearson_regression([(1, 1), (1, 2), (1, 3)])

    def test_degenerate_y(self):
        with pytest.raises(DegenerateVarianceError):
            pearson_regression([(1, 5), (2, 5), (3, 5)])

    # near_zero: t is so small that 1 - x = t^2/(df + t^2) holds all of p's
    # distance from 1, which 1 - x formed as a difference would lose
    @pytest.mark.parametrize(
        "make_pairs, seed",
        [pytest.param(linear_pairs, seed, id=str(seed)) for seed in range(10)]
        + [pytest.param(near_zero_pairs, seed, id=f"near_zero-{seed}") for seed in range(5)],
    )
    def test_matches_high_precision_oracle(self, make_pairs, seed):
        pairs = make_pairs(seed)
        fit = pearson_regression(pairs)
        r_ref, slope_ref, intercept_ref, p_ref = oracles.pearson_mp(pairs)
        assert fit.r == pytest.approx(r_ref, abs=1e-9)
        assert fit.slope == pytest.approx(slope_ref, abs=1e-9)
        assert fit.intercept == pytest.approx(intercept_ref, abs=1e-9)
        assert fit.p == pytest.approx(p_ref, rel=1e-9)

    def test_permutation_invariance(self, rng):
        pairs = [(float(x), float(y)) for x, y in rng.normal(size=(20, 2))]
        base = pearson_regression(pairs)
        perm = pearson_regression([pairs[i] for i in rng.permutation(20)])
        assert base.r == pytest.approx(perm.r, rel=1e-12)
        assert base.slope == pytest.approx(perm.slope, rel=1e-12)
        assert base.p == pytest.approx(perm.p, rel=1e-12)

    def test_affine_invariance_of_r_and_slope_rescaling(self, rng):
        pairs = [(float(x), float(y)) for x, y in rng.normal(size=(30, 2))]
        ax, bx, ay, by = 2.0, 5.0, 0.5, -3.0
        mapped = [(ax * x + bx, ay * y + by) for x, y in pairs]
        base = pearson_regression(pairs)
        trans = pearson_regression(mapped)
        assert trans.r == pytest.approx(base.r, rel=1e-10)
        assert trans.slope == pytest.approx(base.slope * ay / ax, rel=1e-10)
        assert trans.p == pytest.approx(base.p, rel=1e-9)

    def test_p_monotone_in_abs_r(self, rng):
        # same n, increasing |r| must not increase p
        n = 30
        x = np.linspace(0, 1, n)
        results = []
        for noise in (2.0, 1.0, 0.5, 0.1):
            y = x + noise * np.sin(np.arange(n) * 2.39996)  # deterministic pseudo-noise
            fit = pearson_regression(list(zip(x.tolist(), y.tolist())))
            results.append((abs(fit.r), fit.p))
        results.sort()
        ps = [p for _, p in results]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_perfect_fit_p_clamped(self):
        fit = pearson_regression([(float(i), 2.0 * i) for i in range(10)])
        assert fit.p == 1e-300

    def test_near_perfect_fit_p_clamped(self):
        # |r| < 1, but t^2 is so large that the tail underflows
        x = np.arange(300.0)
        fit = pearson_regression(list(zip(x.tolist(), (x + 1e-3 * np.sin(x)).tolist())))
        assert fit.r < 1.0
        assert fit.p == P_CLAMP


class TestTTail:
    @given(df=st.integers(1, 20_000), u=st.floats(0.0, 1.0))
    @settings(max_examples=500, deadline=None)
    def test_matches_mpmath_betainc(self, df, u):
        # r^2/(1 - r^2) = t^2/df from 1e-16 up to where (1 + t^2/df)^(-df/2),
        # which p is near, reaches 1e-300
        top = min(15.0, math.log10(math.expm1(min(1400.0 / df, 700.0))))
        q = 10.0 ** (-16.0 + u * (top + 16.0))
        r = math.sqrt(q / (1.0 + q))
        assume(r < 1.0)
        t_sq = r * r * df / (1.0 - r * r)  # as pearson_regression forms it
        try:
            expected = betainc_mp(t_sq, df)
        except mp.libmp.NoConvergence:
            assume(False)
        assume(expected >= P_CLAMP)
        assert _t_tail(t_sq, df) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("df", [1, 2, 298, 10**7 - 2])
    def test_zero_t_is_exactly_one(self, df):
        assert _t_tail(0.0, df) == 1.0

    @pytest.mark.parametrize("t", [1e-8, 1e-3, 0.5, 1.0, 2.0, 10.0, 1e3, 1e6])
    def test_closed_forms_at_one_and_two_degrees_of_freedom(self, t):
        with mp.workdps(30):
            one = float(1 - 2 / mp.pi * mp.atan(t))
            two = float(1 - t / mp.sqrt(2 + mp.mpf(t) ** 2))
        assert _t_tail(t * t, 1) == pytest.approx(one, rel=1e-14, abs=0.0)
        assert _t_tail(t * t, 2) == pytest.approx(two, rel=1e-14, abs=0.0)

    def test_ten_million_points_converge(self):
        # every t^2 from 1e-300 to 1e300, closest around the switch to
        # 1 - I_{1-x}(1/2, a) at t^2 = 3 df/(df + 2) and around t^2 = 1
        df = 10**7 - 2
        switch = 3.0 * df / (df + 2.0)
        grid = [10.0**e for e in range(-300, 301, 5)]
        grid += [switch * (1.0 + k * 1e-4) for k in range(-20, 21)] + [1.0 + k * 1e-2 for k in range(-20, 21)]
        ps = [_t_tail(t_sq, df) for t_sq in sorted(grid)]
        assert 0.0 <= ps[-1] and ps[0] <= 1.0
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        for t_sq in (1e-12, 1.0, switch * 0.999, switch * 1.001, 25.0, 400.0):
            assert _t_tail(t_sq, df) == pytest.approx(betainc_mp(t_sq, df), rel=1e-12, abs=0.0)


class TestBenjaminiHochberg:
    def test_single_p_identity(self):
        assert benjamini_hochberg([0.05]) == [0.05]

    def test_three_ascending(self):
        qs = benjamini_hochberg([0.01, 0.02, 0.03])
        assert qs == pytest.approx([0.03, 0.03, 0.03])

    def test_two_out_of_order(self):
        qs = benjamini_hochberg([0.04, 0.01])
        assert qs == pytest.approx([0.04, 0.02])

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            benjamini_hochberg([0.5, 1.5])

    def test_empty(self):
        assert benjamini_hochberg([]) == []

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_sorted_monotone_and_dominates_p(self, ps):
        qs = benjamini_hochberg(ps)
        assert all(0.0 <= q <= 1.0 for q in qs)
        for p, q in zip(ps, qs):
            assert q >= p
        order = np.argsort(ps, kind="stable")
        sorted_qs = [qs[i] for i in order]
        assert all(a <= b + 1e-15 for a, b in zip(sorted_qs, sorted_qs[1:]))

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_rejection_set_matches_classic_procedure(self, ps):
        # {i : q_i <= alpha} must equal the classical step-up rejection set
        qs = benjamini_hochberg(ps)
        m = len(ps)
        for alpha in (0.01, 0.05, 0.1, 0.25):
            by_q = {i for i, q in enumerate(qs) if q <= alpha}
            order = sorted(range(m), key=lambda i: ps[i])
            k = 0
            for rank, i in enumerate(order, start=1):
                if ps[i] <= alpha * rank / m:
                    k = rank
            classic = set(order[:k])
            assert by_q == classic


class TestCorrelationTable:
    def test_noiseless_log_linear_cohort(self):
        # log C = -0.25 * log age exactly: slope must come back as -0.25
        ages = np.linspace(44.0, 90.0, 12)
        manifest = make_manifest(ages.tolist())
        rows = correlation_rows(manifest, [[float(age**-0.25)] for age in ages])
        assert len(rows) == 1
        row = rows[0]
        assert row.slope == pytest.approx(-0.25, abs=1e-9)
        assert row.r == pytest.approx(-1.0, abs=1e-9)
        assert row.n == 12

    def test_q_values_joint_across_scales(self):
        rng = np.random.default_rng(5)
        ages = np.linspace(40.0, 90.0, 30)
        manifest = make_manifest(ages.tolist())
        complexities = [
            [float(age**-0.5 * (1 + 0.01 * rng.standard_normal())), float(rng.random() + 0.5)] for age in ages
        ]
        rows = correlation_rows(manifest, complexities)
        qs = benjamini_hochberg([r.p for r in rows])
        assert [r.q_fdr for r in rows] == pytest.approx(qs)
        for r in rows:
            assert r.q_fdr >= r.p

    def test_skip_failures_drops_degenerate_scale(self):
        ages = [50.0, 60.0, 70.0, 80.0]
        manifest = make_manifest(ages)
        complexities = [[float(age), 0.0] for age in ages]
        rows = correlation_rows(manifest, complexities)
        assert [r.scale_index for r in rows] == [0]

    def test_csv_column_order(self):
        manifest = make_manifest([50.0, 60.0, 70.0])
        rows = correlation_rows(manifest, [[1.0 + i] for i in range(3)])
        csv_text = table_to_csv(rows)
        assert csv_text.splitlines()[0] == "scale_index,scale_factor,n,r,p,q_fdr,slope,intercept"

    def test_text_report_mentions_log_base(self):
        manifest = make_manifest([50.0, 60.0, 70.0])
        rows = correlation_rows(manifest, [[1.0 + i] for i in range(3)])
        text = table_to_text(rows)
        assert "log base" in text.splitlines()[0]

    def test_tiny_p_rendered_as_clamp_notation(self):
        ages = np.linspace(40.0, 90.0, 20)
        manifest = make_manifest(ages.tolist())
        rows = correlation_rows(manifest, [[float(a**2.0)] for a in ages])
        assert rows[0].p == 1e-300
        assert "<1e-300" in table_to_text(rows)
