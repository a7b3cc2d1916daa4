"""Cohort statistics: log-log regression of complexity on age, Pearson
correlation with two-sided t-test p-values, and Benjamini-Hochberg FDR
adjustment across scales.

Logs are natural (base e) throughout; Pearson r and p are base-invariant,
slopes and intercepts are not, so report renderers state the base. The
regression treats log age as the predictor and log complexity as the
response, i.e. slope = d(ln C)/d(ln age). The t-test p-value is computed
here from t^2, as a continued fraction for the regularized incomplete beta
function, to the last few digits even at r near 0. p-values below 1e-300
are clamped and rendered as "<1e-300".

Everything works on a subject x scale complexity matrix, as
``npy_io.read_batch_csv`` returns it: :func:`log_log_columns` aligns it to
manifest order and takes the logs once, and :func:`correlate_columns` fits
every scale from those arrays; where the matrix's subject ids equal the
manifest's, in order, the alignment is the identity and takes the matrix
as it is. :func:`pearson_regression` fits one list of (x, y) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, count, repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import StatsError

P_CLAMP = 1e-300


class OutOfRangeError(StatsError):
    """A p-value outside [0, 1]."""


class DegenerateVarianceError(StatsError):
    """Zero variance in x or y makes r undefined."""


class TooFewPointsError(StatsError):
    """Fewer than 3 points."""


class EmptyAfterFilteringError(StatsError):
    """No scale of a cohort has usable (complexity, age) pairs left."""


@dataclass(frozen=True)
class CorrelationRow:
    scale_index: int
    scale_factor: int
    n: int
    r: float
    p: float
    q_fdr: float
    slope: float
    intercept: float


class RegressionResult(NamedTuple):
    r: float
    slope: float
    intercept: float
    p: float


@dataclass(frozen=True, eq=False)
class LogLogColumns:
    """A cohort in log-log space: one row per subject that is both in the
    manifest and in the complexity table, in manifest order."""

    ln_age: np.ndarray  # (n,)
    ln_c: np.ndarray  # (n, n_scales); NaN where C <= 0 or the subject has no value
    no_row: tuple[int, ...]  # per scale, how many subjects of ln_c have no row there
    missing: tuple[str, ...]  # manifest subjects missing from the table, in manifest order
    unknown: tuple[str, ...]  # table subjects missing from the manifest, in table order

    def usable(self, column: int) -> np.ndarray:
        """Mask of the subjects whose log complexity exists in ``column``."""
        return ~np.isnan(self.ln_c[:, column])


def log_log_columns(
    subject_ids: Sequence[str],
    complexity: np.ndarray,
    manifest_ids: Sequence[str],
    ages: Sequence[float],
) -> LogLogColumns:
    """Align an ``(n_subjects, n_scales)`` complexity matrix, whose rows are
    ``subject_ids``, to the manifest's subjects ``manifest_ids`` and their
    ``ages``, and take its logs.

    Zero (or missing) complexities are excluded, since their log is
    undefined. Logs go through ``math.log`` one value at a time.
    """
    if tuple(subject_ids) == tuple(manifest_ids):
        c, found_ages, missing, unknown = complexity, ages, (), ()
    else:
        row_of = dict(zip(subject_ids, count()))
        # -1 marks a manifest subject without a row; popping leaves row_of
        # with the table's subjects that the manifest does not name.
        rows = np.fromiter(map(row_of.pop, manifest_ids, repeat(-1)), np.intp, len(manifest_ids))
        found = rows >= 0
        c = complexity[rows[found]]
        found_ages = compress(ages, found.tolist())
        missing, unknown = tuple(compress(manifest_ids, (~found).tolist())), tuple(row_of)
    positive = c > 0.0
    ln_c = np.full(c.shape, np.nan)
    ln_c[positive] = np.fromiter(map(math.log, c[positive].tolist()), np.float64, np.count_nonzero(positive))
    return LogLogColumns(
        np.fromiter(map(math.log, found_ages), np.float64, len(c)),
        ln_c,
        tuple(np.isnan(c).sum(axis=0).tolist()),
        missing,
        unknown,
    )


def _regress(xs: np.ndarray, ys: np.ndarray) -> RegressionResult:
    n = len(xs)
    if n < 3:
        raise TooFewPointsError(f"need at least 3 points, got {n}")
    xm = float(xs.mean())
    ym = float(ys.mean())
    dx = xs - xm
    dy = ys - ym
    # numpy's own pairwise sums, not np.dot: BLAS splits a long dot product
    # across its threads, so its rounding would follow the thread count.
    sxx = float((dx * dx).sum())
    syy = float((dy * dy).sum())
    sxy = float((dx * dy).sum())
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateVarianceError("x or y values are all equal")
    slope = sxy / sxx
    intercept = ym - slope * xm
    r = max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))
    df = n - 2
    p = 0.0 if abs(r) == 1.0 else _t_tail(r * r * df / (1.0 - r * r), df)
    return RegressionResult(r=r, slope=slope, intercept=intercept, p=max(p, P_CLAMP))


def _t_tail(t_sq: float, df: int) -> float:
    """Two-sided Student-t tail P(|T| >= t) on ``df`` degrees of freedom, from
    t^2: the regularized incomplete beta I_x(a, 1/2), a = df/2, x = df/(df + t^2).

    The continued fraction is summed by Lentz's method (Numerical Recipes
    6.4) in DiDonato and Morris's form (ACM TOMS 708, 1992, BFRAC), whose
    partial denominators are sums of positive terms: in the textbook form
    they cancel near x = 1, losing digits in proportion to df. Where
    x > (a+1)/(a+5/2) it is taken of I_{1-x}(1/2, a) = 1 - I_x(a, 1/2)
    instead. 1 - x is always t^2/(df + t^2), never a difference, so p keeps
    its digits as t -> 0.
    """
    if t_sq == 0.0:
        return 1.0
    a = df / 2.0
    if a > 30.0:
        # ln Gamma(a + 1/2) - ln Gamma(a) by Stirling's series, whose terms
        # are small where two lgamma values of size a ln a would round.
        def stirling(z: float) -> float:
            return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * z * z)) / (z * z)) / z

        ln_gamma_ratio = 0.5 * math.log(a) + (a * math.log1p(0.5 / a) - 0.5) + stirling(a + 0.5) - stirling(a)
    else:
        ln_gamma_ratio = math.lgamma(a + 0.5) - math.lgamma(a)
    # x^a (1-x)^(1/2) / B(a, 1/2), from ln x = -log1p(t^2/df) and ln(1-x)
    ln_powers = -a * math.log1p(t_sq / df) + 0.5 * (math.log(t_sq) - math.log(df + t_sq))
    front = math.exp(ln_powers + ln_gamma_ratio - 0.5 * math.log(math.pi))
    x, y = df / (df + t_sq), t_sq / (df + t_sq)
    # I_x(p, q) and DiDonato and Morris's lam = p - (p + q) x, taken as
    # +-(x/2)(t^2 - 1) so that it cancels no more than t^2 - 1 does
    p, q, lam = a, 0.5, 0.5 * x * (t_sq - 1.0)
    swap = t_sq * (df + 2.0) < 3.0 * df
    if swap:
        p, q, x, y, lam = q, p, y, x, -lam
    f = p * (1.0 + lam) / (p + 1.0)
    c, d = f, 0.0
    for n in range(1, 1000):
        s = p + 2 * n - 1
        alpha = (p + n - 1) * (p + q + n - 1) * n * (q - n) * x * x / (s * s)
        beta = n + n * (q - n) * x / s + (p + n) * (1.0 + lam + n * (1.0 + y)) / (s + 2)
        d = 1.0 / (beta + alpha * d)
        c = beta + alpha / c
        f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return 1.0 - front / f if swap else front / f
    raise ArithmeticError(f"t-test tail did not converge for df={df}, t^2={t_sq!r}")


def pearson_regression(pairs: Sequence[tuple[float, float]]) -> RegressionResult:
    """Least-squares fit of y on x plus the sample Pearson coefficient.

    The two-sided p-value comes from t^2 = r^2 (n-2)/(1-r^2) under the
    t-distribution with n-2 degrees of freedom: the regularized incomplete
    beta I_x((n-2)/2, 1/2) at x = (n-2)/(n-2 + t^2), summed as a continued
    fraction by Lentz's method.
    """
    return _regress(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))


def benjamini_hochberg(p_values: Sequence[float]) -> list[float]:
    """Step-up FDR q-values: q_(i) = min_{j >= i} p_(j) * m / j, capped at 1."""
    for p in p_values:
        if not (0.0 <= p <= 1.0):
            raise OutOfRangeError(f"p-value {p} outside [0, 1]")
    m = len(p_values)
    if m == 0:
        return []
    p_arr = np.asarray(p_values, dtype=np.float64)
    order = np.argsort(p_arr, kind="stable")
    # multiply by m/j (always >= 1.0 exactly) so q_(i) >= p_(i) holds in
    # floating point, not just in exact arithmetic
    scaled = p_arr[order] * (m / np.arange(1, m + 1))
    q_sorted = np.minimum.accumulate(scaled[::-1])[::-1]
    q_sorted = np.minimum(q_sorted, 1.0)
    q = np.empty(m)
    q[order] = q_sorted
    return [float(v) for v in q]


def correlate_columns(
    columns: LogLogColumns,
    scale_indices: Sequence[int],
    scale_factors: Sequence[int],
) -> list[CorrelationRow]:
    """One correlation row per column of ``columns``, with q-values adjusted
    jointly across all scored scales of the run.

    Scales that cannot be scored (too few points, degenerate variance,
    nothing left after filtering) are dropped from the table, and from the
    FDR family.
    """
    partial = []
    for j, (k, factor) in enumerate(zip(scale_indices, scale_factors)):
        usable = columns.usable(j)
        ln_c = columns.ln_c[usable, j]
        try:
            # regress ln C on ln age: age is the predictor
            fit = _regress(columns.ln_age[usable], ln_c)
        except StatsError:
            continue
        partial.append((k, factor, len(ln_c), fit))
    qs = benjamini_hochberg([fit.p for _, _, _, fit in partial])
    return [
        CorrelationRow(
            scale_index=k,
            scale_factor=factor,
            n=n,
            r=fit.r,
            p=fit.p,
            q_fdr=q,
            slope=fit.slope,
            intercept=fit.intercept,
        )
        for (k, factor, n, fit), q in zip(partial, qs)
    ]


TABLE_COLUMNS = ("scale_index", "scale_factor", "n", "r", "p", "q_fdr", "slope", "intercept")


def _format_p(p: float) -> str:
    if p <= P_CLAMP:
        return "<1e-300"
    return f"{p:.3e}"


def table_to_csv(rows: Iterable[CorrelationRow]) -> str:
    lines = [",".join(TABLE_COLUMNS)]
    lines.extend(",".join(repr(getattr(row, c)) for c in TABLE_COLUMNS) for row in rows)
    return "\n".join(lines) + "\n"


def table_to_text(rows: Iterable[CorrelationRow]) -> str:
    """Aligned plain-text report (scale, r, p, q, slope, intercept columns)."""
    header = ["scale", "factor", "n", "r", "p", "q_fdr", "slope", "intercept"]
    body = [
        [
            str(row.scale_index),
            f"x{row.scale_factor}",
            str(row.n),
            f"{row.r:+.3f}",
            _format_p(row.p),
            _format_p(row.q_fdr),
            f"{row.slope:+.3f}",
            f"{row.intercept:+.3f}",
        ]
        for row in rows
    ]
    widths = [max(len(col[i]) for col in [header] + body) for i in range(len(header))]
    lines = ["# log base: natural (ln); slope = d(ln C)/d(ln age)"]
    for cells in [header] + body:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(cells, widths)))
    return "\n".join(lines) + "\n"
