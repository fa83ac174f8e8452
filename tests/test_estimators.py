import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arh1bench.estimators import (
    DEGENERATE,
    ESCAPED,
    NON_FINITE,
    DegenerateTrajectoryError,
    column_faults,
    deciding_component,
    estimate_all,
    first_fault,
    fold_lag_terms,
    fold_rows,
    lag_sums,
    minus_root,
    sufficient_stats,
)
from arh1bench.harness import example_model
from arh1bench.metrics import truncation_order
from arh1bench.simulator import Trajectory, simulate
from arh1bench.spectral_model import (
    MAX_PRIOR_EXPONENT,
    EigenvalueLaw,
    ModelRealization,
    PriorSpec,
    SpectralModelSpec,
    prior_shapes,
    realize,
    truncate_realization,
)
from conftest import bayes_estimate, cubic_score_solve, naive_sums, reference_ar1


def _component_shapes(k):
    """The prior's Beta shapes (a_k, b_k) of component k, as floats."""
    a, b = prior_shapes(k)
    return float(a[-1]), float(b[-1])


# Beta shapes (a, b) with a + b >= 2: a spread of them, pairs with
# a + b == 2 exactly, where the discriminant is the square (alpha - beta)**2,
# and the prior's (2**k, 1.01) up to its largest k.
_SHAPES = st.one_of(
    st.tuples(st.floats(0.2, 8.0), st.floats(0.0, 5.0)).map(
        lambda p: (p[0], max(1.0, 2.0 - p[0]) + p[1])
    ),
    st.floats(0.2, 1.99).map(lambda a: (a, 2.0 - a)).filter(lambda p: sum(p) == 2.0),
    st.integers(1, MAX_PRIOR_EXPONENT).map(_component_shapes),
)


def _column_traj(values) -> Trajectory:
    return Trajectory(coeffs=np.asarray(values, dtype=float)[:, None])


def _classical(values) -> float:
    """The classical estimate alpha / beta of one column, as the kernel
    forms it (flat prior, unit innovation variance)."""
    alpha, beta = lag_sums(np.asarray(values, dtype=float)[:, None])
    assert column_faults(alpha, beta, np.ones(1), np.ones(1), np.ones(1))[0] == 0
    return float(alpha[0] / beta[0])


class TestSufficientStats:
    def test_hand_sum(self):
        assert sufficient_stats(_column_traj([1.0, 2.0, 3.0]), 1) == (8.0, 5.0)

    def test_zero_column(self):
        traj = _column_traj([0.0, 0.0, 0.0])
        assert sufficient_stats(traj, 1) == (0.0, 0.0)
        real = ModelRealization(C=[1.0], rho=[0.5], sigma2=[0.75])
        with pytest.raises(DegenerateTrajectoryError):
            estimate_all(traj, real, 1, PriorSpec())

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(31)
        col = rng.standard_normal(10_001) * np.logspace(0, 3, 10_001)
        # the same left fold, so the same bits
        assert sufficient_stats(_column_traj(col), 1) == naive_sums(col)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^sufficient statistics need T >= 1, got T=0$"):
            sufficient_stats(_column_traj([1.0]), 1)
        with pytest.raises(IndexError):
            sufficient_stats(_column_traj([1.0, 2.0]), 2)


def _spread(rng, shape) -> np.ndarray:
    """Values of magnitude 1e-8..1e8 with random signs."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)


def _fold(terms) -> float:
    """The plain-Python left fold from 0.0; not the builtin sum, which
    Python 3.12 and later compensates."""
    s = 0.0
    for v in terms:
        s += v
    return s


def _within_fold_bound(got, terms) -> bool:
    """|got - exact sum| <= (n - 1) * 2**-53 * sum |p|, the error bound of a
    left fold of n terms, in exact rational arithmetic."""
    terms = [Fraction(v) for v in terms]
    bound = (len(terms) - 1) * Fraction(1, 2**53) * sum(map(abs, terms))
    return abs(Fraction(float(got)) - sum(terms)) <= bound


def _fold_into(total, rows):
    """Fold ``rows`` into ``total`` as the block kernel does: the rows follow
    a carry row holding the running total, and the fold goes back into it.
    Returns the array folded."""
    p = np.empty((len(rows) + 1, *total.shape))
    p[0] = total
    p[1:] = rows
    fold_rows(p, out=total)
    return p


def _kernel_fold(x, chunk, spare):
    """(alpha, beta) of the columns of x as the block kernel and the path
    engine form them: ``fold_lag_terms`` on chunk rows at a time, onto the
    front of running sums that are ``spare`` columns wider."""
    n, c = x.shape[0] - 1, x.shape[1]
    sums = np.zeros((2, c + spare))
    for lo in range(0, n, chunk):
        m = min(chunk, n - lo)
        fold_lag_terms(x[lo : lo + m + 1], sums[:, :c], np.empty((m + 1, c)))
    return sums[:, :c]


# Row counts either side of the block sizes at which a pairwise sum would
# split its terms.
_ROW_COUNTS = [0, 1, 2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 1000, 4097]


class TestExactSums:
    """Every alpha and beta is exactly, bit for bit, the left fold of its lag
    products in time order, whichever route forms it and however the rows
    are chunked, and lies within that fold's error bound of the true sum."""

    @given(
        n=st.integers(min_value=0, max_value=300),
        columns=st.integers(min_value=1, max_value=4),
        chunk=st.integers(min_value=1, max_value=64),
        spare=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_left_fold_bit_for_bit(self, n, columns, chunk, spare, seed):
        x = _spread(np.random.default_rng(seed), (n + 1, columns))
        before = x.copy()
        cols = x.T.tolist()
        want = np.array([
            [_fold(a * b for a, b in zip(col, col[1:])) for col in cols],
            [_fold(a * a for a in col[:-1]) for col in cols],
        ])
        for got in (np.array(lag_sums(x)), _kernel_fold(x, chunk, spare)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # fold_lag_terms writes only the sums and its scratch, never x
        assert np.array_equal(x.view(np.int64), before.view(np.int64))

    @given(
        rows=st.lists(st.integers(min_value=0, max_value=41), min_size=1, max_size=6),
        columns=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(rows=[2, 7, 40, 1, 13], columns=3, seed=0)
    @settings(max_examples=200, deadline=None)
    def test_reused_total_equals_left_fold(self, rows, columns, seed):
        # one running (alpha, beta) total fed blocks of changing row counts,
        # empty ones, odd ones and larger ones after smaller, ends at the
        # left fold of each column and never writes into a block
        data = _spread(np.random.default_rng(seed), (sum(rows), 2, columns))
        total = np.zeros((2, columns))
        for lo, hi in zip(np.cumsum([0, *rows[:-1]]), np.cumsum(rows)):
            p = _fold_into(total, data[lo:hi])
            assert np.array_equal(p[1:].view(np.int64), data[lo:hi].view(np.int64))
        want = np.array([_fold(col) for col in data.reshape(len(data), 2 * columns).T.tolist()])
        assert np.array_equal(total.ravel().view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n", _ROW_COUNTS)
    def test_width_two_is_left_fold(self, n):
        # one replication with k = 1, the narrowest fold there is: its two
        # sums, alpha's terms and then beta's, each folded as a lone column,
        # never summed pairwise
        x = _spread(np.random.default_rng(n), (n + 1, 1))
        col = x[:, 0].tolist()
        want = np.array([
            [_fold(a * b for a, b in zip(col, col[1:]))],
            [_fold(a * a for a in col[:-1])],
        ])
        for got in (np.array(lag_sums(x)), _kernel_fold(x, 64, 0), _kernel_fold(x, n + 1, 1)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n", _ROW_COUNTS)
    def test_one_column_fold_is_left_fold(self, n):
        # a lone column, which np.add.reduce would sum pairwise, is folded
        # in order, into a new array or into out, and its block is not written
        p = _spread(np.random.default_rng(n), (n + 1, 1))
        before = p.copy()
        want = np.array([_fold(p[:, 0].tolist())])
        out = np.full(1, np.nan)
        assert fold_rows(p, out=out) is out
        for got in (fold_rows(p), out):
            assert got.shape == (1,)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(p.view(np.int64), before.view(np.int64))

    @given(
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_within_fold_error_bound(self, n, seed):
        x = _spread(np.random.default_rng(seed), (n + 1, 2))
        products = np.concatenate([x[:-1] * x[1:], x[:-1] * x[:-1]], axis=1)
        for got, col in zip(np.concatenate(lag_sums(x)), products.T):
            assert _within_fold_bound(got, col.tolist())

    @pytest.mark.parametrize(
        "col",
        [
            [1.0, 2.0**-53],  # a tie, rounded to even
            [1.0, 2.0**-53, 2.0**-105],  # just past the tie
            [1.0, -(2.0**-54), -(2.0**-110)],  # just below a power of two
            [1e300, 1e-300, -1e300],
            [-0.0],  # from 0.0, a fold of negative zeros is +0.0
            [0.0, -0.0],
            [5e-324, 5e-324, -1e-310],
            [1.0, 2.0**-53, 2.0**-200, -(2.0**-200)],
        ],
    )
    def test_adversarial_columns(self, col):
        # the kernel's fold of these terms, one row per chunk and all at
        # once, with the terms reversed alongside as a second column and
        # each column alone
        cols = [col, col[::-1]]
        want = np.array([_fold(c) for c in cols])
        for chunk in (1, len(col)):
            for sel in (slice(None), slice(0, 1), slice(1, 2)):
                total = np.zeros(2)[sel]
                for lo in range(0, len(col), chunk):
                    _fold_into(total, np.array(cols).T[lo : lo + chunk, sel])
                assert np.array_equal(total.view(np.int64), want[sel].view(np.int64))
        for got, c in zip(want, cols):
            assert _within_fold_bound(got, c)


class TestClassical:
    def test_constant_column(self):
        assert _classical([2.0, 2.0, 2.0, 2.0]) == 1.0

    def test_alternating_column(self):
        assert _classical([1.0, 0.0, 1.0, 0.0]) == 0.0

    def test_ar1_consistency_with_lstsq_oracle(self):
        real = ModelRealization(C=[1.0], rho=[0.8], sigma2=[1.0 - 0.64])
        traj = simulate(real, 100_000, np.random.default_rng(12))
        est = float(estimate_all(traj, real, 1, PriorSpec()).rho_hat[0])
        assert abs(est - 0.8) < 0.01
        x = traj.coeffs[:, 0]
        slope, *_ = np.linalg.lstsq(x[:-1, None], x[1:], rcond=None)
        assert est == pytest.approx(float(slope[0]), rel=1e-10)

    @given(
        col=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=3, max_size=40),
        scale=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=150)
    def test_scale_equivariance(self, col, scale):
        arr = np.asarray(col)
        assume(float(np.max(np.abs(arr[:-1]))) > 0.1)
        base = _classical(arr)
        scaled = _classical(scale * arr)
        assert scaled == pytest.approx(base, rel=1e-12, abs=1e-12)


class TestBayes:
    def test_flat_prior_reduces_to_classical(self):
        for sigma2 in (0.1, 1.0, 7.0):
            assert bayes_estimate(3.0, 5.0, sigma2, 1.0, 1.0) == 0.6

    def test_cap_at_one(self):
        assert bayes_estimate(8.0, 5.0, 1.0, 1.0, 1.0) == 1.0

    def test_cap_is_min_of_ratio_and_one(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            beta = float(rng.uniform(0.1, 10.0))
            alpha = float(rng.uniform(-2.0, 2.0) * beta)
            a = float(rng.uniform(0.5, 1.0))
            b = 2.0 - a  # exact in binary64 for a in [0.5, 1]
            got = bayes_estimate(alpha, beta, float(rng.uniform(0.01, 4.0)), a, b)
            want = min(alpha / beta, 1.0)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_penalized_root_closed_form(self):
        # alpha=3, beta=5, sigma2=0.5, a=b=2: discriminant
        # (3-5)^2 - 4*5*0.5*(2-4) = 24, minus root (8 - sqrt(24))/10
        got = bayes_estimate(3.0, 5.0, 0.5, 2.0, 2.0)
        assert got == pytest.approx((8.0 - math.sqrt(24.0)) / 10.0, abs=1e-14)
        plus = bayes_estimate(3.0, 5.0, 0.5, 2.0, 2.0, root="plus")
        assert plus == pytest.approx((8.0 + math.sqrt(24.0)) / 10.0, abs=1e-14)

    def test_root_product_identity(self):
        # Vieta: minus * plus = c0 / beta, minus + plus = (alpha+beta)/beta
        alpha, beta, sigma2, a, b = 2.5, 4.0, 0.7, 3.0, 1.5
        minus = bayes_estimate(alpha, beta, sigma2, a, b)
        plus = bayes_estimate(alpha, beta, sigma2, a, b, root="plus")
        c0 = alpha + sigma2 * (2.0 - (a + b))
        assert minus * plus == pytest.approx(c0 / beta, rel=1e-12)
        assert minus + plus == pytest.approx((alpha + beta) / beta, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DegenerateTrajectoryError):
            bayes_estimate(0.0, 0.0, 1.0, 2.0, 2.0)

    @given(
        alpha=st.floats(min_value=-20.0, max_value=20.0),
        beta=st.floats(min_value=0.05, max_value=20.0),
        sigma2=st.floats(min_value=0.01, max_value=5.0),
        shapes=_SHAPES,
    )
    @example(alpha=1.0, beta=1.0, sigma2=5.0, shapes=(0.9921875, 1.0078125))
    @example(alpha=-20.0, beta=20.0, sigma2=5.0, shapes=(2.0**MAX_PRIOR_EXPONENT, 1.01))
    @settings(max_examples=200)
    def test_root_ordering_and_spread(self, alpha, beta, sigma2, shapes):
        # with a+b >= 2 the discriminant dominates (alpha-beta)^2, so the
        # real roots exist, rounding included (the kernel has no guard
        # for a negative one), and are at least |alpha-beta|/beta apart
        a, b = shapes
        assume(a + b >= 2.0)
        minus = bayes_estimate(alpha, beta, sigma2, a, b)
        plus = bayes_estimate(alpha, beta, sigma2, a, b, root="plus")
        assert math.isfinite(minus) and math.isfinite(plus)
        spread = abs(alpha - beta) / beta
        assert plus - minus >= spread * (1.0 - 1e-9) - 1e-12

    def test_near_unit_root_follows_start(self):
        # With T*(1 - rho) tiny a component barely moves from its start x0,
        # so alpha ~ beta ~ T*x0**2 and the minus root is about
        # 1 - sqrt(P/(T*x0**2)), P = sigma2*(a + b - 2).  x0**2/C is
        # chi-square(1), so a small |x0| sends the estimate far below 0, and
        # the shrinkage check passes it: its bound sqrt(P/beta) grows too.
        j, rho, T, n = 27, 1.0 - 1e-8, 200, 400
        C = j**-1.5
        sigma2 = C * (1.0 - rho * rho)
        a, b = _component_shapes(j)
        real = ModelRealization(C=[C] * n, rho=[rho] * n, sigma2=[sigma2] * n)
        x = simulate(real, T, np.random.default_rng(0)).coeffs
        alpha, beta = lag_sums(x)
        full = [np.full(n, v) for v in (sigma2, a, b)]
        assert not column_faults(alpha, beta, *full).any()
        minus = minus_root(alpha, beta, *full)
        assert minus.min() < -10.0
        x0 = x[0]
        settled = np.abs(x0) >= 100.0 * math.sqrt(T * sigma2)
        assert settled.sum() > 0.8 * n
        want = 1.0 - np.sqrt(sigma2 * (a + b - 2.0) / (T * x0[settled] ** 2))
        assert np.all(np.abs(minus[settled] - want) <= 0.01 * np.abs(want))


def _three_way_minus(alpha, beta, sigma2, a, b):
    """The minus root as the three-way product form on the sign of
    s = alpha + beta gave it, the reference for ``minus_root``."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        shift = 2.0 - (a + b)
        diff = alpha - beta
        root = np.sqrt(diff * diff - 4.0 * beta * sigma2 * shift)
        s = alpha + beta
        c0 = alpha + sigma2 * shift
        pos, neg = s > 0.0, s < 0.0
        q = np.where(neg, s - root, s + root)
        quot = q / (2.0 * beta)
        return np.where(pos, 2.0 * c0 / q, np.where(neg, quot, -quot))


class TestMinusRoot:
    @pytest.mark.parametrize("sign", [1, -1, 0])
    @pytest.mark.parametrize("k", [1, 5, 39, MAX_PRIOR_EXPONENT])
    def test_equals_three_way_form_bit_for_bit(self, sign, k):
        # each branch of s = alpha + beta: s > 0, s < 0 and s == 0 exactly
        # (alpha = -beta), at prior shapes up to a = 2**511
        rng = np.random.default_rng([25, sign + 1, k])
        n = 20_000
        beta = rng.uniform(0.05, 50.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        ratio = {1: rng.uniform(0.0, 2.0, n), -1: -rng.uniform(1.0, 3.0, n), 0: -1.0}[sign]
        alpha = ratio * beta
        assert np.all(np.sign(alpha + beta) == sign)
        sigma2 = rng.uniform(1e-4, 5.0, n)
        a, b = _component_shapes(k)
        got = minus_root(alpha, beta, sigma2, a, b)
        want = _three_way_minus(alpha, beta, sigma2, a, b)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestShrink:
    """At the sums a component has on average, beta = T * C and alpha =
    rho * beta, the shrink s = rho_hat - rho_tilde_minus solves
    s * (1 - rho_hat + s) = c, c = sigma2 * (a + b - 2) / beta, and is near
    c / (1 - rho) well past the crossover T* = 4 (a + b - 2)(1 + rho)/(1 - rho)
    and near sqrt(c) well short of it."""

    RHO = np.array([0.1, 0.5, 0.9, 0.99, 0.999])

    def _shrink(self, j, factor):
        """rho_hat, s and c of the components j with the RHO at T = factor * T*."""
        a, b = _component_shapes(j)
        rho, C = self.RHO, j**-1.5
        T = factor * 4.0 * (a + b - 2.0) * (1.0 + rho) / (1.0 - rho)
        beta, sigma2 = T * C, C * (1.0 - rho**2)
        alpha = rho * beta
        cols = (alpha, beta, sigma2, *(np.full(rho.size, v) for v in (a, b)))
        assert not column_faults(*cols).any()
        hat = alpha / beta
        return hat, hat - minus_root(*cols), sigma2 * (a + b - 2.0) / beta

    @pytest.mark.parametrize("factor", [1e-4, 1.0, 100.0])
    @pytest.mark.parametrize("j", range(1, 6))
    def test_identity(self, j, factor):
        # s is the difference of two values near rho_hat, so it holds their
        # rounding relative to its own size: 1e-10 at the smallest s here
        hat, s, c = self._shrink(j, factor)
        assert np.allclose(s * (1.0 - hat + s), c, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("j", range(1, 6))
    def test_two_regimes(self, j):
        # at T = 100 T*, 4c = (1 - rho)**2 / 100 and c / (1 - rho) is 0.25%
        # above s; at T = T* / 10**4, 4c = 10**4 (1 - rho)**2 and sqrt(c)
        # is 1.0% above s, whatever the component
        hat, s, c = self._shrink(j, 100.0)
        assert np.all(np.abs(c / (1.0 - hat) / s - 1.0025) < 1e-4)
        _, s, c = self._shrink(j, 1e-4)
        assert np.all(np.abs(np.sqrt(c) / s - 1.01) < 1e-4)


class TestCubicScore:
    def test_flat_prior_factorization(self):
        # a=b=1, sigma2=1, alpha=3, beta=5: r(r-1)(5r-3) = 0
        roots = cubic_score_solve(3.0, 5.0, 1.0, 1.0, 1.0)
        assert len(roots) == 3
        for want, got in zip((0.0, 0.6, 1.0), roots):
            assert got == pytest.approx(want, abs=1e-9)

    def test_zero_always_root(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            alpha, beta = float(rng.uniform(-5, 5)), float(rng.uniform(0.1, 5))
            roots = cubic_score_solve(alpha, beta, float(rng.uniform(0.1, 2)), 1.0,
                                      float(rng.uniform(1.0, 4.0)), bounds=(-0.25, 0.25))
            assert min(abs(r) for r in roots) < 1e-12

    def test_contains_closed_form_roots(self):
        minus = (8.0 - math.sqrt(24.0)) / 10.0
        plus = (8.0 + math.sqrt(24.0)) / 10.0
        roots = cubic_score_solve(3.0, 5.0, 0.5, 2.0, 2.0)
        assert min(abs(r - minus) for r in roots) < 1e-9
        wide = cubic_score_solve(3.0, 5.0, 0.5, 2.0, 2.0, bounds=(-0.5, 2.0))
        assert min(abs(r - minus) for r in wide) < 1e-9
        assert min(abs(r - plus) for r in wide) < 1e-9

    def test_tangent_double_root_found(self):
        # tuned so the quadratic factor has a double root at r = 1/2:
        # beta r^2 - (alpha+beta) r + c0 with alpha=0, beta=4, sigma2=1,
        # shift = 2-(a+b) = 1 -> c0 = 1, roots (4r^2 - 4r + 1) = (2r-1)^2.
        # The score never changes sign there, so only the stationary-point
        # scan can catch it.
        roots = cubic_score_solve(0.0, 4.0, 1.0, 0.5, 0.5, bounds=(0.2, 0.8))
        assert min(abs(r - 0.5) for r in roots) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            cubic_score_solve(1.0, 2.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            cubic_score_solve(1.0, 2.0, 1.0, 1.0, 1.0, bounds=(1.0, 0.0))
        with pytest.raises(DegenerateTrajectoryError):
            cubic_score_solve(0.0, 0.0, 1.0, 1.0, 1.0)


class TestEstimateAll:
    def test_constant_column_unit_estimates(self):
        alpha, beta = lag_sums(np.full((4, 1), 3.0))
        # dyadic shapes summing to exactly 2 (cap regime)
        cols = (alpha, beta, np.array([0.75]), np.array([0.9921875]), np.array([1.0078125]))
        assert column_faults(*cols)[0] == 0
        assert alpha[0] / beta[0] == 1.0
        assert minus_root(*cols)[0] == 1.0

    def test_deterministic(self):
        spec = SpectralModelSpec(law=EigenvalueLaw.power_law(1.5), k_max=5)
        real = realize(spec, np.random.default_rng(5))
        t1 = simulate(real, 400, np.random.default_rng(6))
        t2 = simulate(real, 400, np.random.default_rng(6))
        e1 = estimate_all(t1, real, 5, spec.prior)
        e2 = estimate_all(t2, real, 5, spec.prior)
        assert np.array_equal(e1.rho_hat, e2.rho_hat)
        assert np.array_equal(e1.rho_tilde_minus, e2.rho_tilde_minus)

    def test_shrinkage_bound_on_seeded_run(self):
        spec = SpectralModelSpec(law=EigenvalueLaw.power_law(1.5), k_max=5)
        real = realize(spec, np.random.default_rng(21))
        traj = simulate(real, 2_000, np.random.default_rng(22))
        est = estimate_all(traj, real, 5, spec.prior)
        alphas, betas = lag_sums(traj.coeffs)
        for j, (a, b) in enumerate(zip(*(v.tolist() for v in prior_shapes(5)))):
            sigma2 = float(real.sigma2[j])
            bound = math.sqrt(sigma2 * (a + b - 2.0) / betas[j])
            delta = est.rho_hat[j] - est.rho_tilde_minus[j]
            if est.rho_hat[j] <= 1.0:
                assert -1e-12 <= delta <= bound + 1e-12
            plus = bayes_estimate(float(alphas[j]), float(betas[j]), sigma2, a, b, root="plus")
            assert plus >= est.rho_tilde_minus[j]

    @pytest.mark.parametrize(
        "example, rho_mode, T", [(1, "redraw", 2_000), (3, "fixed", 2_000)]
    )
    def test_sums_match_sufficient_stats(self, example, rho_mode, T):
        # sufficient_stats' two floats are lag_sums' columns bit for bit, and
        # estimate_all's classical estimates are their ratios
        spec, rule = example_model(example, T, rho_mode=rho_mode)
        k_T = truncation_order(T, rule)
        rng = np.random.default_rng([0, 1, T, 1])
        if rho_mode == "fixed":
            assert k_T > 5
            real = truncate_realization(realize(spec, np.random.default_rng([0, 2])), k_T)
        else:
            real = realize(spec, rng)
        traj = simulate(real, T, rng)
        sums = lag_sums(traj.coeffs)
        for j in range(1, k_T + 1):
            got = sufficient_stats(traj, j)
            assert all(type(v) is float for v in got)
            assert np.array(got).view(np.int64).tolist() == [
                col[j - 1].view(np.int64) for col in sums
            ]
        est = estimate_all(traj, real, k_T, spec.prior)
        assert np.array_equal(est.rho_hat, sums[0][:k_T] / sums[1][:k_T])

    def test_non_finite_sums_raise(self):
        # finite states whose lag products overflow leave sums that are not
        # finite: estimate_all raises, as the block kernel drops such a
        # replication as NON_FINITE, ahead of a degenerate component
        real = ModelRealization(C=[1.0, 1.0], rho=[0.5, 0.5], sigma2=[0.75, 0.75])
        for first in ([1.0, 2.0, 1.5], [0.0, 0.0, 0.0]):
            traj = Trajectory(coeffs=np.column_stack([first, np.full(3, 1e200)]))
            with np.errstate(over="ignore"), pytest.raises(RuntimeError) as exc:
                estimate_all(traj, real, 2, PriorSpec())
            assert type(exc.value) is RuntimeError
            assert str(exc.value) == "component 2: sums alpha=inf, beta=inf are not finite over T=2"

    def test_escaped_message(self):
        # the first ESCAPED component is named, with its shrink
        # alpha/beta - minus and its bound sqrt(sigma2*(a+b-2)/beta)
        alpha, beta = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])
        sigma2 = np.array([0.5, 0.25, 0.125])
        a, b = prior_shapes(3)
        assert not column_faults(alpha, beta, sigma2, a, b).any()
        minus = minus_root(alpha, beta, sigma2, a, b)
        error = first_fault(np.array([0, ESCAPED, ESCAPED]), 7, alpha, beta, sigma2, a, b)
        assert type(error) is RuntimeError
        delta = 2.0 / 5.0 - float(minus[1])
        bound = math.sqrt(0.25 * (4.0 + 1.01 - 2.0) / 5.0)
        assert str(error) == f"component 2: shrinkage {delta} escapes [0, {bound}]"

    # each row of fault codes and the component that decides it
    DECIDING = [
        ([0, 0, 0], 0),  # no fault
        ([0, DEGENERATE, NON_FINITE], 2),  # non-finite sums outrank an earlier fault
        ([ESCAPED, DEGENERATE, 0], 0),  # else the first faulty component decides
        ([0, 0, ESCAPED], 2),
        ([NON_FINITE, 0, NON_FINITE], 0),
    ]

    def test_deciding_component(self):
        # the rows as one 2-D array, and each as a 1-D row
        rows, want = (list(v) for v in zip(*self.DECIDING))
        assert deciding_component(np.array(rows)).tolist() == want
        for row, i in self.DECIDING:
            assert deciding_component(np.array(row)) == i

    def test_non_finite_code_comes_first(self):
        alpha = np.array([np.inf, 1.0, np.nan, -np.inf, 1.0, 0.0])
        beta = np.array([np.inf, np.inf, 0.0, 2.0, 2.0, 0.0])
        ones = np.ones(alpha.size)
        fault = column_faults(alpha, beta, ones, 2.0 * ones, ones)
        assert fault.tolist() == [NON_FINITE] * 4 + [0, DEGENERATE]
        assert fault.dtype == np.int8  # the narrowest codes to ship from a pool worker

    def test_range_validation(self):
        traj = _column_traj([1.0, 2.0, 1.5])
        real = ModelRealization(C=[1.0], rho=[0.5], sigma2=[0.75])
        with pytest.raises(ValueError):
            estimate_all(traj, real, 2, PriorSpec())
        with pytest.raises(ValueError):
            estimate_all(Trajectory(coeffs=np.ones((1, 1))), real, 1, PriorSpec())
        # a realization shorter than k_T is refused by truncate_realization
        with pytest.raises(ValueError, match="realization of 1 components to 2"):
            estimate_all(Trajectory(coeffs=np.ones((3, 2))), real, 2, PriorSpec())
        for sigma2 in (0.0, -1.0, math.nan):
            bad = ModelRealization(C=[1.0], rho=[0.5], sigma2=[sigma2])
            with pytest.raises(ValueError, match="innovation variances must be positive"):
                estimate_all(traj, bad, 1, PriorSpec())

