import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arh1bench import estimators
from arh1bench.estimators import (
    ColumnSums,
    ComplexRootError,
    DegenerateTrajectoryError,
    SufficientStats,
    bayes_estimate,
    classical_estimate,
    cubic_score_solve,
    estimate_all,
    exact_sums,
    lag_products,
    plugin_predict,
    sufficient_stats,
)
from arh1bench.simulator import Trajectory, simulate
from arh1bench.spectral_model import (
    EigenvalueLaw,
    ModelRealization,
    PriorSpec,
    SpectralModelSpec,
    prior_params,
    realize,
)
from conftest import naive_sums, reference_ar1


def _column_traj(values) -> Trajectory:
    return Trajectory(coeffs=np.asarray(values, dtype=float)[:, None])


class TestSufficientStats:
    def test_hand_sum(self):
        st_ = sufficient_stats(_column_traj([1.0, 2.0, 3.0]), 1)
        assert st_.alpha == 8.0
        assert st_.beta == 5.0
        assert st_.T == 2

    def test_zero_column(self):
        st_ = sufficient_stats(_column_traj([0.0, 0.0, 0.0]), 1)
        assert (st_.alpha, st_.beta) == (0.0, 0.0)
        with pytest.raises(DegenerateTrajectoryError):
            classical_estimate(st_)

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
        ],
    )
    def test_adversarial_columns(self, col):
        got = exact_sums(np.array(col)[:, None])
        assert got.view(np.int64)[0] == np.float64(math.fsum(col)).view(np.int64)

    def test_certificate_clears_simulated_columns(self):
        # the fast path, not the fsum fallback, serves ordinary data
        spec = SpectralModelSpec(law=EigenvalueLaw.power_law(2.0), k_max=40)
        traj = simulate(realize(spec, np.random.default_rng(9)), 2_000,
                        np.random.default_rng(10))
        products = lag_products(traj.coeffs)
        sums = ColumnSums(products.shape[1])
        sums.add(products)
        total, exact = sums.result()
        assert exact.all()
        assert np.array_equal(total, exact_sums(products))


class TestClassical:
    def test_constant_column(self):
        st_ = sufficient_stats(_column_traj([2.0, 2.0, 2.0, 2.0]), 1)
        assert classical_estimate(st_) == 1.0

    def test_alternating_column(self):
        st_ = sufficient_stats(_column_traj([1.0, 0.0, 1.0, 0.0]), 1)
        assert classical_estimate(st_) == 0.0

    def test_ar1_consistency_with_lstsq_oracle(self):
        real = ModelRealization(C=[1.0], rho=[0.8], sigma2=[1.0 - 0.64])
        traj = simulate(real, 100_000, np.random.default_rng(12))
        st_ = sufficient_stats(traj, 1)
        est = classical_estimate(st_)
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
        base = classical_estimate(sufficient_stats(_column_traj(arr), 1))
        scaled = classical_estimate(sufficient_stats(_column_traj(scale * arr), 1))
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

    def test_complex_roots_rejected(self):
        # a + b < 2 can push the discriminant genuinely negative
        st_ = SufficientStats(alpha=1.0, beta=1.0, T=5)
        with pytest.raises(ComplexRootError):
            bayes_estimate(st_, 10.0, 0.5, 1.2)

    def test_validation(self):
        st_ = SufficientStats(alpha=1.0, beta=2.0, T=5)
        with pytest.raises(ValueError):
            bayes_estimate(st_, -1.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            bayes_estimate(st_, 1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            bayes_estimate(st_, 1.0, 2.0, 0.9)
        with pytest.raises(ValueError):
            bayes_estimate(st_, 1.0, 2.0, 2.0, root="center")
        with pytest.raises(DegenerateTrajectoryError):
            bayes_estimate(SufficientStats(alpha=0.0, beta=0.0, T=5), 1.0, 2.0, 2.0)

    @given(
        alpha=st.floats(min_value=-20.0, max_value=20.0),
        beta=st.floats(min_value=0.05, max_value=20.0),
        sigma2=st.floats(min_value=0.01, max_value=5.0),
        a=st.floats(min_value=0.2, max_value=8.0),
        extra=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=200)
    def test_root_ordering_and_spread(self, alpha, beta, sigma2, a, extra):
        # with a+b >= 2 the discriminant dominates (alpha-beta)^2, so the
        # real roots exist and are at least |alpha-beta|/beta apart
        b = max(1.0, 2.0 - a) + extra
        assume(a + b >= 2.0)
        st_ = SufficientStats(alpha=alpha, beta=beta, T=5)
        minus = bayes_estimate(st_, sigma2, a, b)
        plus = bayes_estimate(st_, sigma2, a, b, root="plus")
        spread = abs(alpha - beta) / beta
        assert plus - minus >= spread * (1.0 - 1e-9) - 1e-12


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
        traj = _column_traj([3.0, 3.0, 3.0, 3.0])
        real = ModelRealization(C=[1.0], rho=[0.5], sigma2=[0.75])
        # dyadic shapes summing to exactly 2 (cap regime)
        priors = PriorSpec(a=(0.9921875,), b=(1.0078125,))
        est = estimate_all(traj, real, 1, priors)
        assert est.rho_hat[0] == 1.0
        assert est.rho_tilde_minus[0] == 1.0

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
            a, b = prior_params(spec.prior, j + 1)
            sigma2 = float(real.sigma2[j])
            bound = math.sqrt(sigma2 * (a + b - 2.0) / est.stats[j].beta)
            delta = est.rho_hat[j] - est.rho_tilde_minus[j]
            if est.rho_hat[j] <= 1.0:
                assert -1e-12 <= delta <= bound + 1e-12
            plus = bayes_estimate(est.stats[j], sigma2, a, b, root="plus")
            assert plus >= est.rho_tilde_minus[j]

    def test_range_validation(self):
        traj = _column_traj([1.0, 2.0, 1.5])
        real = ModelRealization(C=[1.0], rho=[0.5], sigma2=[0.75])
        with pytest.raises(ValueError):
            estimate_all(traj, real, 2, PriorSpec())
        with pytest.raises(ValueError):
            estimate_all(Trajectory(coeffs=np.ones((1, 1))), real, 1, PriorSpec())


class TestPluginPredict:
    def test_trivial_cases(self):
        spec = SpectralModelSpec(law=EigenvalueLaw.power_law(1.5), k_max=2)
        real = realize(spec, np.random.default_rng(1))
        traj = simulate(real, 50, np.random.default_rng(2))
        est = estimate_all(traj, real, 2, spec.prior)

        zeroed = est.__class__(
            k_T=2, rho_hat=np.zeros(2), rho_tilde_minus=np.zeros(2), stats=est.stats
        )
        assert np.array_equal(plugin_predict(zeroed, "classical", [5.0, 6.0]), [0.0, 0.0])

        ones = est.__class__(
            k_T=2, rho_hat=np.ones(2), rho_tilde_minus=np.ones(2), stats=est.stats
        )
        assert np.array_equal(plugin_predict(ones, "bayes_minus", [5.0, 6.0]), [5.0, 6.0])

        halves = est.__class__(
            k_T=2,
            rho_hat=np.array([0.5, 0.25]),
            rho_tilde_minus=np.array([0.5, 0.25]),
            stats=est.stats,
        )
        assert np.array_equal(plugin_predict(halves, "classical", [2.0, 4.0]), [1.0, 1.0])

    def test_truncation_and_kind_validation(self):
        spec = SpectralModelSpec(law=EigenvalueLaw.power_law(1.5), k_max=2)
        real = realize(spec, np.random.default_rng(3))
        traj = simulate(real, 50, np.random.default_rng(4))
        est = estimate_all(traj, real, 2, spec.prior)
        out = plugin_predict(est, "classical", [1.0, 1.0, 9.0, 9.0])
        assert out.shape == (4,)
        assert np.array_equal(out[2:], [0.0, 0.0])
        with pytest.raises(ValueError):
            plugin_predict(est, "bayes_plus", [1.0, 1.0])
