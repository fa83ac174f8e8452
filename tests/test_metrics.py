import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from arh1bench.metrics import (
    AR1_PATH_CHUNK,
    EfmseInput,
    EfmseReport,
    KtRule,
    bartlett_check,
    efmse_param,
    efmse_pred,
    ergodic_estimates,
    ks_distance_to_normal,
    normality_check,
    prior_param_limit,
    prior_pred_limit,
    theory_param_limit,
    theory_pred_limit,
    truncation_order,
    _ar1_rho_hat_samples,
    _normal_cdf,
)
from arh1bench.simulator import Trajectory, simulate
from arh1bench.spectral_model import (
    EigenvalueLaw,
    ModelRealization,
    PriorSpec,
    eigenvalue,
    prior_mean_sq,
    realize,
    SpectralModelSpec,
)

PAPER_T_GRID = (250, 500, 750, 1000, 1250, 1500, 1750, 2000)


def _inp(est, truth, last):
    return EfmseInput(
        estimates=np.asarray(est, dtype=float),
        truth=np.asarray(truth, dtype=float),
        last_coeffs=np.asarray(last, dtype=float),
    )


class TestEfmse:
    def test_exact_estimates_give_zero(self):
        inp = _inp([[0.5, 0.2]], [[0.5, 0.2]], [[1.0, 2.0]])
        assert efmse_param(inp) == 0.0
        assert efmse_pred(inp) == 0.0

    def test_single_error(self):
        inp = _inp([[0.6]], [[0.5]], [[2.0]])
        assert efmse_param(inp) == pytest.approx(0.01, rel=1e-12)
        assert efmse_pred(inp) == pytest.approx(0.04, rel=1e-12)

    def test_hand_sum_two_replications(self):
        inp = _inp([[0.1, 0.2], [0.0, 0.1]], np.zeros((2, 2)), np.ones((2, 2)))
        assert efmse_param(inp) == pytest.approx(0.03, rel=1e-12)

    def test_zero_weights_kill_pred(self):
        inp = _inp([[0.9, 0.9]], [[0.1, 0.2]], [[0.0, 0.0]])
        assert efmse_pred(inp) == 0.0
        assert efmse_param(inp) > 0.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(77)
        est = rng.standard_normal((40, 5))
        truth = rng.standard_normal((40, 5))
        last = rng.standard_normal((40, 5))
        inp = _inp(est, truth, last)
        naive_param = sum(
            (est[w, j] - truth[w, j]) ** 2 for w in range(40) for j in range(5)
        ) / 40
        naive_pred = sum(
            ((est[w, j] - truth[w, j]) * last[w, j]) ** 2
            for w in range(40)
            for j in range(5)
        ) / 40
        assert efmse_param(inp) == pytest.approx(naive_param, rel=1e-12)
        assert efmse_pred(inp) == pytest.approx(naive_pred, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            _inp(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            _inp(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))

    @given(
        records=arrays(
            float,
            st.tuples(st.integers(2, 12), st.integers(1, 4)),
            elements=st.floats(-5.0, 5.0),
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance_and_batch_additivity(self, records, seed):
        n = records.shape[0]
        rng = np.random.default_rng(seed)
        truth = rng.standard_normal(records.shape)
        last = rng.standard_normal(records.shape)
        full = _inp(records, truth, last)

        perm = rng.permutation(n)
        shuffled = _inp(records[perm], truth[perm], last[perm])
        # fsum is exactly rounded, so permuting replications changes nothing
        assert efmse_param(full) == efmse_param(shuffled)
        assert efmse_pred(full) == efmse_pred(shuffled)

        cut = n // 2
        for fn in (efmse_param, efmse_pred):
            head = fn(_inp(records[:cut], truth[:cut], last[:cut]))
            tail = fn(_inp(records[cut:], truth[cut:], last[cut:]))
            merged = (cut * head + (n - cut) * tail) / n
            assert fn(full) == pytest.approx(merged, rel=1e-12, abs=1e-15)


class TestTheoryLimits:
    def test_param_limit_hand_values(self):
        real = ModelRealization(C=np.ones(5), rho=np.zeros(5), sigma2=np.ones(5))
        assert theory_param_limit(real, 5) == 5.0
        real2 = ModelRealization(C=[1.0, 1.0], rho=[0.9, 0.8], sigma2=[0.19, 0.36])
        assert theory_param_limit(real2, 2) == pytest.approx(0.55, rel=1e-14)
        with pytest.raises(ValueError):
            theory_param_limit(real2, 3)

    def test_pred_limit_hand_values(self):
        C = np.array([1.0, 0.5, 0.25])
        real = ModelRealization(C=C, rho=np.zeros(3), sigma2=C.copy())
        assert theory_pred_limit(real, 3) == pytest.approx(1.75, rel=1e-14)
        single = ModelRealization(C=[1.0], rho=[0.6], sigma2=[0.64])
        assert theory_pred_limit(single, 1) == pytest.approx(0.64, rel=1e-14)

    def test_pred_limit_equals_sigma2_sum(self):
        spec = SpectralModelSpec(law=EigenvalueLaw.power_law(1.5), k_max=6)
        real = realize(spec, np.random.default_rng(13))
        assert theory_pred_limit(real, 6) == pytest.approx(
            float(np.sum(real.sigma2)), rel=1e-15
        )

    def test_prior_limits_against_monte_carlo(self):
        # closed-form Beta second moments vs numpy's own beta sampler
        prior = PriorSpec()
        law = EigenvalueLaw.power_law(1.5)
        rng = np.random.default_rng(55)
        mc_param = 0.0
        mc_pred = 0.0
        for k in range(1, 6):
            draws = rng.beta(2.0**k, 1.01, size=1_000_000)
            term = float(np.mean(1.0 - draws**2))
            mc_param += term
            mc_pred += eigenvalue(law, k) * term
        assert prior_param_limit(prior, 5) == pytest.approx(mc_param, rel=5e-3)
        assert prior_pred_limit(law, prior, 5) == pytest.approx(mc_pred, rel=5e-3)

    def test_prior_limit_consistency_with_moments(self):
        prior = PriorSpec()
        direct = math.fsum(1.0 - prior_mean_sq(k) for k in range(1, 8))
        assert prior_param_limit(prior, 7) == pytest.approx(direct, rel=1e-15)

    def test_prior_limits_finite_at_largest_default_shape(self):
        # 2**511 is the last prior shape whose moments stay finite; the
        # terms past k ~ 60 no longer change either sum
        prior = PriorSpec()
        law = EigenvalueLaw.power_law(2.0)
        assert prior_param_limit(prior, 511) == pytest.approx(1.27370810940, rel=1e-10)
        assert prior_pred_limit(law, prior, 511) == pytest.approx(0.62001128545, rel=1e-10)


class TestTruncationOrder:
    def test_power_rule_on_paper_grid(self):
        rule = KtRule.power(4.1)
        got = tuple(truncation_order(T, rule) for T in PAPER_T_GRID)
        assert got == (3, 4, 5, 5, 5, 5, 6, 6)

    def test_fixed_rule(self):
        rule = KtRule.fixed(5)
        assert all(truncation_order(T, rule) == 5 for T in (1, 250, 10_000))

    def test_power_rule_guards_prediction_regime(self):
        # alpha must exceed 4 so sqrt(T) * C_{k_T} diverges for quadratic
        # eigenvalue decay: the growth exponent 1/2 - 2/alpha stays positive
        assert 0.5 - 2.0 / 4.1 > 0
        with pytest.raises(ValueError):
            KtRule.power(4.0)
        with pytest.raises(ValueError):
            KtRule.power(3.0)

    def test_nondecreasing_in_T(self):
        rule = KtRule.power(4.1)
        orders = [truncation_order(T, rule) for T in range(1, 3000, 7)]
        assert all(u <= v for u, v in zip(orders, orders[1:]))

    def test_exact_integer_powers_not_floored_away(self):
        rule = KtRule.power(5.0)
        assert truncation_order(2**5, rule) == 2
        assert truncation_order(3**5, rule) == 3

    def test_parse_and_str_roundtrip(self):
        for text in ("fixed:5", "power:4.1"):
            assert str(KtRule.parse(text)) == text
        with pytest.raises(ValueError):
            KtRule.parse("fixed")
        with pytest.raises(ValueError):
            KtRule.parse("other:3")
        with pytest.raises(ValueError):
            KtRule.parse("fixed:2.5")
        with pytest.raises(ValueError):
            KtRule.fixed(0)
        with pytest.raises(ValueError):
            truncation_order(0, KtRule.fixed(5))


class TestBartlett:
    def test_targets(self):
        rng = np.random.default_rng(1)
        _, target = bartlett_check(0.6, 1.0, 50, 10, rng)
        assert target == pytest.approx(0.64, rel=1e-15)
        _, target = bartlett_check(0.9, 2.0, 50, 10, rng)
        assert target == pytest.approx(0.19, rel=1e-14)

    def test_white_noise_limit(self):
        t_mse, target = bartlett_check(0.0, 1.0, 4000, 4000, np.random.default_rng(2))
        assert target == 1.0
        assert abs(t_mse - 1.0) < 0.1

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            bartlett_check(1.0, 1.0, 10, 10, rng)
        with pytest.raises(ValueError):
            bartlett_check(0.5, 0.0, 10, 10, rng)
        with pytest.raises(ValueError):
            bartlett_check(0.5, 1.0, 0, 10, rng)

    @pytest.mark.parametrize("rho", [0.6, 0.999, -0.3])
    def test_paths_match_lfilter(self, rho):
        # the numpy time loop gives lfilter's bits, over more than one chunk
        from scipy.signal import lfilter

        T, N, sigma = 200, AR1_PATH_CHUNK + 37, 1.3
        got = _ar1_rho_hat_samples(rho, sigma, T, N, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        want = []
        for lo in range(0, N, AR1_PATH_CHUNK):
            m = min(AR1_PATH_CHUNK, N - lo)
            x0 = sigma / math.sqrt(1.0 - rho * rho) * rng.standard_normal(m)
            eps = sigma * rng.standard_normal((T, m))
            xs, _ = lfilter([1.0], [1.0, -rho], eps, axis=0, zi=(rho * x0)[None, :])
            paths = np.vstack([x0[None, :], xs])
            want.append(
                np.einsum("ij,ij->j", paths[:-1], paths[1:])
                / np.einsum("ij,ij->j", paths[:-1], paths[:-1])
            )
        assert got.view(np.int64).tolist() == np.concatenate(want).view(np.int64).tolist()

    def test_sums_add_row_after_row(self):
        # alpha and beta take their terms in row order across row chunks,
        # in a chunk of many paths and in one of a single path
        T, N, rho, sigma = 150, AR1_PATH_CHUNK + 1, 0.6, 1.3
        got = _ar1_rho_hat_samples(rho, sigma, T, N, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        want = []
        for lo in range(0, N, AR1_PATH_CHUNK):
            m = min(AR1_PATH_CHUNK, N - lo)
            x0 = sigma / math.sqrt(1.0 - rho * rho) * rng.standard_normal(m)
            eps = sigma * rng.standard_normal((T, m))
            for j in range(m):
                prev, alpha, beta = float(x0[j]), 0.0, 0.0
                for e in eps[:, j].tolist():
                    x = e + rho * prev
                    alpha += prev * x
                    beta += prev * prev
                    prev = x
                want.append(alpha / beta)
        assert got.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()

    def test_memory_does_not_grow_with_T(self):
        # a (T, N) block of normals alone would take 6.4 MB
        tracemalloc.start()
        try:
            _ar1_rho_hat_samples(0.6, 1.0, 200_000, 4, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestNormality:
    def test_score_moments(self):
        ks, z = normality_check(0.5, 3000, 2000, np.random.default_rng(3))
        assert abs(float(np.mean(z))) < 3.0 / math.sqrt(2000)
        assert abs(float(np.var(z)) - 1.0) < 0.15
        assert 0.0 < ks < 1.0

    def test_needs_enough_paths(self):
        with pytest.raises(ValueError):
            normality_check(0.5, 100, 50, np.random.default_rng(0))

    def test_ks_distance_hand_case(self):
        assert ks_distance_to_normal([0.0]) == pytest.approx(0.5, rel=1e-12)
        with pytest.raises(ValueError):
            ks_distance_to_normal([])

    def test_ks_distance_on_perfect_quantiles(self):
        from scipy.special import ndtri

        n = 1000
        quantiles = ndtri((np.arange(n) + 0.5) / n)
        assert ks_distance_to_normal(quantiles) < 1.0 / n

    def test_ks_distance_matches_scipy(self):
        from scipy import stats as sps

        rng = np.random.default_rng(4)
        sample = rng.standard_normal(500)
        ours = ks_distance_to_normal(sample)
        theirs = float(sps.kstest(sample, "norm").statistic)
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_normal_cdf_matches_ndtr(self):
        from scipy.special import ndtr

        z = np.linspace(-8.0, 8.0, 100_001)
        assert np.max(np.abs(_normal_cdf(z) - ndtr(z))) <= 2.0**-52


class TestErgodic:
    def test_constant_column(self):
        traj = Trajectory(coeffs=np.full((6, 1), 3.0))
        c_hat, d_hat = ergodic_estimates(traj, 1, 5)
        assert c_hat == pytest.approx(9.0, rel=1e-15)
        assert d_hat == pytest.approx(9.0 * 5 / 4, rel=1e-15)

    def test_zero_column(self):
        traj = Trajectory(coeffs=np.zeros((5, 2)))
        assert ergodic_estimates(traj, 2, 4) == (0.0, 0.0)

    def test_bounds(self):
        traj = Trajectory(coeffs=np.ones((4, 1)))
        with pytest.raises(IndexError):
            ergodic_estimates(traj, 1, 4)
        with pytest.raises(IndexError):
            ergodic_estimates(traj, 2, 3)
        with pytest.raises(ValueError):
            ergodic_estimates(traj, 1, 1)

    def test_converges_to_stationary_moments(self):
        real = ModelRealization(C=[1.0], rho=[0.9], sigma2=[0.19])
        traj = simulate(real, 50_000, np.random.default_rng(10))
        c_hat, d_hat = ergodic_estimates(traj, 1, 50_000)
        assert abs(c_hat - 1.0) < 0.15
        assert abs(d_hat / c_hat - 0.9) < 0.02


class TestReportShape:
    def test_fields_mirror_csv_columns(self):
        import dataclasses

        names = [f.name for f in dataclasses.fields(EfmseReport)]
        assert names == [
            "example", "T", "N", "kT", "estimator", "efmse_param", "efmse_pred",
            "t_efmse_param", "theory_param_limit", "theory_pred_limit",
            "ref_one_over_T",
        ]
