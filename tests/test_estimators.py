import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arh1bench import estimators
from arh1bench.estimators import (
    ColumnSums,
    DegenerateTrajectoryError,
    SufficientStats,
    estimate_all,
    estimate_columns,
    exact_sums,
    lag_products,
    lag_sums,
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
    prior_params,
    realize,
    truncate_realization,
)
from conftest import bayes_estimate, cubic_score_solve, naive_sums, reference_ar1

# Beta shapes (a, b) with a + b >= 2: a spread of them, pairs with
# a + b == 2 exactly, where the discriminant is the square (alpha - beta)**2,
# and the prior's (2**k, 1.01) up to its largest k.
_SHAPES = st.one_of(
    st.tuples(st.floats(0.2, 8.0), st.floats(0.0, 5.0)).map(
        lambda p: (p[0], max(1.0, 2.0 - p[0]) + p[1])
    ),
    st.floats(0.2, 1.99).map(lambda a: (a, 2.0 - a)).filter(lambda p: sum(p) == 2.0),
    st.integers(1, MAX_PRIOR_EXPONENT).map(prior_params),
)


def _column_traj(values) -> Trajectory:
    return Trajectory(coeffs=np.asarray(values, dtype=float)[:, None])


def _classical(values) -> float:
    """The classical estimate alpha / beta of one column, as the kernel
    forms it (flat prior, unit innovation variance)."""
    alpha, beta = lag_sums(np.asarray(values, dtype=float)[:, None])
    hat, _, fault = estimate_columns(alpha, beta, np.ones(1), np.ones(1), np.ones(1))
    assert fault[0] == 0
    return float(hat[0])


class TestSufficientStats:
    def test_hand_sum(self):
        st_ = sufficient_stats(_column_traj([1.0, 2.0, 3.0]), 1)
        assert st_.alpha == 8.0
        assert st_.beta == 5.0
        assert st_.T == 2

    def test_zero_column(self):
        traj = _column_traj([0.0, 0.0, 0.0])
        st_ = sufficient_stats(traj, 1)
        assert (st_.alpha, st_.beta) == (0.0, 0.0)
        real = ModelRealization(C=[1.0], rho=[0.5], sigma2=[0.75])
        with pytest.raises(DegenerateTrajectoryError):
            estimate_all(traj, real, 1, PriorSpec())

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(31)
        col = rng.standard_normal(10_001) * np.logspace(0, 3, 10_001)
        st_ = sufficient_stats(_column_traj(col), 1)
        alpha, beta = naive_sums(col)
        assert st_.alpha == pytest.approx(alpha, rel=1e-12)
        assert st_.beta == pytest.approx(beta, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            sufficient_stats(_column_traj([1.0]), 1)
        with pytest.raises(IndexError):
            sufficient_stats(_column_traj([1.0, 2.0]), 2)
        with pytest.raises(ValueError):
            SufficientStats(alpha=1.0, beta=-0.5, T=3)
        with pytest.raises(ValueError):
            SufficientStats(alpha=1.0, beta=0.5, T=0)


# Summands for the exact-sum tests: magnitudes over the whole normal range,
# subnormals and zeros, and values that make exact rounding ties with 1.0.
_MAGNITUDES = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=0.0, max_value=2.0**-1022),
    st.sampled_from([0.0, 1.0, 2.0**-52, 2.0**-53, 2.0**-54, 3 * 2.0**-53, 2.0**53]),
)


def _column(rng, pool, n, cancel):
    """n summands drawn from the pool or spread over 1e-300..1e300, with
    random signs; ``cancel`` makes half of them the negatives of the rest."""
    wide = rng.uniform(1.0, 2.0, n) * np.exp2(rng.integers(-997, 997, n).astype(float))
    col = np.where(rng.random(n) < 0.5, rng.choice(pool, n), wide)
    col *= rng.choice([-1.0, 1.0], n)
    if cancel:
        half = col[: n // 2]
        col = rng.permutation(np.concatenate([half, -half, col[2 * (n // 2) :]]))
    return col


def _tree(rows, columns):
    """A tree scratch for ColumnSums blocks of up to that many rows."""
    return np.empty(math.prod(ColumnSums.tree_shape(rows, columns)))


class TestExactSums:
    @given(
        pool=st.lists(_MAGNITUDES, min_size=1, max_size=20),
        n=st.integers(min_value=1, max_value=300),
        cancel=st.lists(st.booleans(), min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chunk=st.sampled_from([estimators.CHUNK_ELEMENTS, 5, 1]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_fsum_bit_for_bit(self, pool, n, cancel, seed, chunk):
        rng = np.random.default_rng(seed)
        cols = [_column(rng, pool, n, c) for c in cancel]
        with mock.patch.object(estimators, "CHUNK_ELEMENTS", chunk):
            got = exact_sums(np.array(cols).T)
        want = np.array([math.fsum(col.tolist()) for col in cols])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "col",
        [
            [1.0, 2.0**-53],  # a tie, rounded to even
            [1.0, 2.0**-53, 2.0**-105],  # just past the tie
            [1.0, -(2.0**-54), -(2.0**-110)],  # just below a power of two
            [1e300, 1e-300, -1e300],
            [-0.0],
            [0.0, -0.0],
            [5e-324, 5e-324, -1e-310],
            [1.0, 2.0**-53, 2.0**-200, -(2.0**-200)],  # an exact tie, left to fsum
        ],
    )
    def test_adversarial_columns(self, col):
        got = exact_sums(np.array(col)[:, None])
        assert got.view(np.int64)[0] == np.float64(math.fsum(col)).view(np.int64)

    def test_exact_tie_is_not_certified(self):
        # the tree's sum is right, but the certificate cannot show that the
        # float sum of the TwoSum errors is exact, so fsum decides the tie
        sums = ColumnSums(1, _tree(4, 1))
        sums.add(np.array([[1.0], [2.0**-53], [2.0**-200], [-(2.0**-200)]]))
        total, exact = sums.result()
        assert total[0] == 1.0 and not exact[0]

    def test_certificate_clears_simulated_columns(self):
        # the fast path, not the fsum fallback, serves ordinary data
        spec = SpectralModelSpec(law=EigenvalueLaw.power_law(2.0), k_max=40)
        traj = simulate(realize(spec, np.random.default_rng(9)), 2_000,
                        np.random.default_rng(10))
        products = lag_products(traj.coeffs)
        sums = ColumnSums(products.shape[1], _tree(*products.shape))
        sums.add(products)
        total, exact = sums.result()
        assert exact.all()
        assert np.array_equal(total, exact_sums(products))


    @given(
        rows=st.lists(st.integers(min_value=0, max_value=41), min_size=1, max_size=6),
        columns=st.integers(min_value=1, max_value=4),
        wide=st.booleans(),
        pool=st.lists(_MAGNITUDES, min_size=1, max_size=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(rows=[2, 7, 40, 1, 13], columns=3, wide=False, pool=[1.0], seed=0)
    @settings(max_examples=200, deadline=None)
    def test_reused_scratch_equals_fsum(self, rows, columns, wide, pool, seed):
        # one ColumnSums fed blocks of changing row counts, odd ones and
        # larger ones after smaller, certifies only fsum's sums and never
        # writes into a block
        rng = np.random.default_rng(seed)
        n = sum(rows)
        cols = [_column(rng, pool, n, False) if wide else rng.standard_normal(n)
                for _ in range(columns)]
        data = np.array(cols).reshape(columns, n).T.copy()
        sums = ColumnSums(columns, _tree(max(rows), columns))
        for lo, hi in zip(np.cumsum([0, *rows[:-1]]), np.cumsum(rows)):
            block = data[lo:hi]
            before = block.copy()
            sums.add(block)
            assert np.array_equal(block.view(np.int64), before.view(np.int64))
        total, exact = sums.result()
        want = np.array([math.fsum(col.tolist()) for col in cols])
        assert np.array_equal(total[exact].view(np.int64), want[exact].view(np.int64))

    def test_reused_scratch_allocates_no_block(self):
        # after the first block, three more blocks of 2 MB each allocate
        # under an eighth of a block
        rng = np.random.default_rng(2)
        blocks = [rng.standard_normal((64, 4090)) ** 2 for _ in range(4)]
        sums = ColumnSums(4090, _tree(64, 4090))
        sums.add(blocks[0])
        tracemalloc.start()
        try:
            for block in blocks[1:]:
                sums.add(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < blocks[0].nbytes / 8
        total, exact = sums.result()
        assert exact.all()
        assert np.array_equal(total, exact_sums(np.concatenate(blocks)))

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
        st_ = SufficientStats(alpha=3.0, beta=5.0, T=10)
        for sigma2 in (0.1, 1.0, 7.0):
            assert bayes_estimate(st_, sigma2, 1.0, 1.0) == 0.6

    def test_cap_at_one(self):
        st_ = SufficientStats(alpha=8.0, beta=5.0, T=10)
        assert bayes_estimate(st_, 1.0, 1.0, 1.0) == 1.0

    def test_cap_is_min_of_ratio_and_one(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            beta = float(rng.uniform(0.1, 10.0))
            alpha = float(rng.uniform(-2.0, 2.0) * beta)
            a = float(rng.uniform(0.5, 1.0))
            b = 2.0 - a  # exact in binary64 for a in [0.5, 1]
            st_ = SufficientStats(alpha=alpha, beta=beta, T=5)
            got = bayes_estimate(st_, float(rng.uniform(0.01, 4.0)), a, b)
            want = min(alpha / beta, 1.0)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_penalized_root_closed_form(self):
        # alpha=3, beta=5, sigma2=0.5, a=b=2: discriminant
        # (3-5)^2 - 4*5*0.5*(2-4) = 24, minus root (8 - sqrt(24))/10
        st_ = SufficientStats(alpha=3.0, beta=5.0, T=10)
        got = bayes_estimate(st_, 0.5, 2.0, 2.0)
        assert got == pytest.approx((8.0 - math.sqrt(24.0)) / 10.0, abs=1e-14)
        plus = bayes_estimate(st_, 0.5, 2.0, 2.0, root="plus")
        assert plus == pytest.approx((8.0 + math.sqrt(24.0)) / 10.0, abs=1e-14)

    def test_root_product_identity(self):
        # Vieta: minus * plus = c0 / beta, minus + plus = (alpha+beta)/beta
        st_ = SufficientStats(alpha=2.5, beta=4.0, T=10)
        sigma2, a, b = 0.7, 3.0, 1.5
        minus = bayes_estimate(st_, sigma2, a, b)
        plus = bayes_estimate(st_, sigma2, a, b, root="plus")
        c0 = st_.alpha + sigma2 * (2.0 - (a + b))
        assert minus * plus == pytest.approx(c0 / st_.beta, rel=1e-12)
        assert minus + plus == pytest.approx((st_.alpha + st_.beta) / st_.beta, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DegenerateTrajectoryError):
            bayes_estimate(SufficientStats(alpha=0.0, beta=0.0, T=5), 1.0, 2.0, 2.0)

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
        st_ = SufficientStats(alpha=alpha, beta=beta, T=5)
        minus = bayes_estimate(st_, sigma2, a, b)
        plus = bayes_estimate(st_, sigma2, a, b, root="plus")
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
        a, b = prior_params(j)
        real = ModelRealization(C=[C] * n, rho=[rho] * n, sigma2=[sigma2] * n)
        x = simulate(real, T, np.random.default_rng(0)).coeffs
        alpha, beta = lag_sums(x)
        full = [np.full(n, v) for v in (sigma2, a, b)]
        _, minus, fault = estimate_columns(alpha, beta, *full)
        assert not fault.any()
        assert minus.min() < -10.0
        x0 = x[0]
        settled = np.abs(x0) >= 100.0 * math.sqrt(T * sigma2)
        assert settled.sum() > 0.8 * n
        want = 1.0 - np.sqrt(sigma2 * (a + b - 2.0) / (T * x0[settled] ** 2))
        assert np.all(np.abs(minus[settled] - want) <= 0.01 * np.abs(want))


class TestCubicScore:
    def test_flat_prior_factorization(self):
        # a=b=1, sigma2=1, alpha=3, beta=5: r(r-1)(5r-3) = 0
        st_ = SufficientStats(alpha=3.0, beta=5.0, T=10)
        roots = cubic_score_solve(st_, 1.0, 1.0, 1.0)
        assert len(roots) == 3
        for want, got in zip((0.0, 0.6, 1.0), roots):
            assert got == pytest.approx(want, abs=1e-9)

    def test_zero_always_root(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            st_ = SufficientStats(
                alpha=float(rng.uniform(-5, 5)), beta=float(rng.uniform(0.1, 5)), T=7
            )
            roots = cubic_score_solve(st_, float(rng.uniform(0.1, 2)), 1.0,
                                      float(rng.uniform(1.0, 4.0)), bounds=(-0.25, 0.25))
            assert min(abs(r) for r in roots) < 1e-12

    def test_contains_closed_form_roots(self):
        st_ = SufficientStats(alpha=3.0, beta=5.0, T=10)
        minus = (8.0 - math.sqrt(24.0)) / 10.0
        plus = (8.0 + math.sqrt(24.0)) / 10.0
        roots = cubic_score_solve(st_, 0.5, 2.0, 2.0)
        assert min(abs(r - minus) for r in roots) < 1e-9
        wide = cubic_score_solve(st_, 0.5, 2.0, 2.0, bounds=(-0.5, 2.0))
        assert min(abs(r - minus) for r in wide) < 1e-9
        assert min(abs(r - plus) for r in wide) < 1e-9

    def test_tangent_double_root_found(self):
        # tuned so the quadratic factor has a double root at r = 1/2:
        # beta r^2 - (alpha+beta) r + c0 with alpha=0, beta=4, sigma2=1,
        # shift = 2-(a+b) = 1 -> c0 = 1, roots (4r^2 - 4r + 1) = (2r-1)^2.
        # The score never changes sign there, so only the stationary-point
        # scan can catch it.
        st_ = SufficientStats(alpha=0.0, beta=4.0, T=5)
        roots = cubic_score_solve(st_, 1.0, 0.5, 0.5, bounds=(0.2, 0.8))
        assert min(abs(r - 0.5) for r in roots) < 1e-9

    def test_validation(self):
        st_ = SufficientStats(alpha=1.0, beta=2.0, T=5)
        with pytest.raises(ValueError):
            cubic_score_solve(st_, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            cubic_score_solve(st_, 1.0, 1.0, 1.0, bounds=(1.0, 0.0))
        with pytest.raises(DegenerateTrajectoryError):
            cubic_score_solve(SufficientStats(alpha=0.0, beta=0.0, T=5), 1.0, 1.0, 1.0)


class TestEstimateAll:
    def test_constant_column_unit_estimates(self):
        alpha, beta = lag_sums(np.full((4, 1), 3.0))
        # dyadic shapes summing to exactly 2 (cap regime)
        a, b = np.array([0.9921875]), np.array([1.0078125])
        rho_hat, rho_minus, fault = estimate_columns(alpha, beta, np.array([0.75]), a, b)
        assert fault[0] == 0
        assert rho_hat[0] == 1.0
        assert rho_minus[0] == 1.0

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
        for j in range(5):
            a, b = prior_params(j + 1)
            sigma2 = float(real.sigma2[j])
            bound = math.sqrt(sigma2 * (a + b - 2.0) / est.beta[j])
            delta = est.rho_hat[j] - est.rho_tilde_minus[j]
            if est.rho_hat[j] <= 1.0:
                assert -1e-12 <= delta <= bound + 1e-12
            stats = SufficientStats(alpha=float(est.alpha[j]), beta=float(est.beta[j]), T=traj.T)
            plus = bayes_estimate(stats, sigma2, a, b, root="plus")
            assert plus >= est.rho_tilde_minus[j]

    @pytest.mark.parametrize(
        "example, rho_mode, T", [(1, "redraw", 2_000), (3, "fixed", 2_000)]
    )
    def test_sums_match_sufficient_stats(self, example, rho_mode, T):
        # estimate_all's alpha and beta are sufficient_stats' bit for bit
        spec, rule = example_model(example, T, rho_mode=rho_mode)
        k_T = truncation_order(T, rule)
        rng = np.random.default_rng([0, 1, T, 1])
        if rho_mode == "fixed":
            assert k_T > 5
            real = truncate_realization(realize(spec, np.random.default_rng([0, 2])), k_T)
        else:
            real = realize(spec, rng)
        traj = simulate(real, T, rng)
        est = estimate_all(traj, real, k_T, spec.prior)
        for j in range(1, k_T + 1):
            stats = sufficient_stats(traj, j)
            assert np.float64(stats.alpha).view(np.int64) == est.alpha[j - 1].view(np.int64)
            assert np.float64(stats.beta).view(np.int64) == est.beta[j - 1].view(np.int64)

    def test_range_validation(self):
        traj = _column_traj([1.0, 2.0, 1.5])
        real = ModelRealization(C=[1.0], rho=[0.5], sigma2=[0.75])
        with pytest.raises(ValueError):
            estimate_all(traj, real, 2, PriorSpec())
        with pytest.raises(ValueError):
            estimate_all(Trajectory(coeffs=np.ones((1, 1))), real, 1, PriorSpec())
        for sigma2 in (0.0, -1.0, math.nan):
            bad = ModelRealization(C=[1.0], rho=[0.5], sigma2=[sigma2])
            with pytest.raises(ValueError, match="innovation variances must be positive"):
                estimate_all(traj, bad, 1, PriorSpec())

