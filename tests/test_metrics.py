import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from arh1bench import harness
from arh1bench.metrics import (
    AR1_PATH_CHUNK,
    EfmseInput,
    EfmseReport,
    KtRule,
    bartlett_check,
    efmse_param,
    efmse_pred,
    ergodic_check,
    ergodic_estimates,
    finite_t_param_reference,
    finite_t_pred_reference,
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
from arh1bench.simulator import simulate
from arh1bench.spectral_model import (
    EigenvalueLaw,
    ModelRealization,
    PriorSpec,
    eigenvalues,
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

    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 32)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_per_replication_sums_in_component_order(self, shape, seed):
        # one replication's EFMSE is its squared errors added in component
        # order, bit for bit as a plain loop adds them
        rng = np.random.default_rng(seed)
        est, truth, last = (rng.standard_normal(shape) for _ in range(3))
        for e, t, x in zip(est.tolist(), truth.tolist(), last.tolist()):
            param = pred = 0.0
            for ej, tj, xj in zip(e, t, x):
                d = ej - tj
                param += d * d
                pred += (d * xj) * (d * xj)
            inp = _inp([e], [t], [x])
            assert (efmse_param(inp), efmse_pred(inp)) == (param, pred)

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

    def test_finite_t_reference(self):
        # the limit plus T * s**2 + 4 * rho * s per component: above the
        # limit at every T, and falling to it, like 1/T once T passes each
        # component's crossover T*_j (77 and 48 here)
        real = ModelRealization(C=[1.0, 0.5], rho=[0.9, 0.6], sigma2=[0.19, 0.32])
        limit = theory_param_limit(real, 2)
        excess = [finite_t_param_reference(real, 2, T) - limit for T in (1e3, 1e6, 1e7)]
        assert 0.0 < excess[2] < excess[1] < excess[0]
        assert excess[1] / excess[2] == pytest.approx(10.0, rel=0.01)
        # one component against the positive root of s**2 + (1 - rho) s = c
        single = ModelRealization(C=[1.0], rho=[0.5], sigma2=[0.75])
        a, b = 2.0, 1.01  # prior_shapes(1)
        T = 1000.0
        c = 0.75 * (a + b - 2.0) / T
        s = (-(1.0 - 0.5) + math.sqrt(0.25 + 4.0 * c)) / 2.0
        want = 0.75 + T * s * s + 4.0 * 0.5 * s
        assert finite_t_param_reference(single, 1, T) == pytest.approx(want, rel=1e-9)
        with pytest.raises(ValueError):
            finite_t_param_reference(real, 3, 100)

    def test_finite_t_pred_reference(self):
        # the prediction limit plus C_j * T * s_j**2 per component, with the
        # parameter reference's shrink and no cross term: above the limit,
        # falling to it like 1/T past the crossovers
        real = ModelRealization(C=[1.0, 0.5], rho=[0.9, 0.6], sigma2=[0.19, 0.32])
        limit = theory_pred_limit(real, 2)
        excess = [finite_t_pred_reference(real, 2, T) - limit for T in (1e3, 1e6, 1e7)]
        assert 0.0 < excess[2] < excess[1] < excess[0]
        assert excess[1] / excess[2] == pytest.approx(10.0, rel=0.01)
        # one component with C = 2: s solves s**2 + (1 - rho) s = c at beta = T C
        single = ModelRealization(C=[2.0], rho=[0.5], sigma2=[1.5])
        a, b = 2.0, 1.01  # prior_shapes(1)
        T = 1000.0
        c = 1.5 * (a + b - 2.0) / (T * 2.0)
        s = (-(1.0 - 0.5) + math.sqrt(0.25 + 4.0 * c)) / 2.0
        want = 2.0 * (0.75 + T * s * s)
        assert finite_t_pred_reference(single, 1, T) == pytest.approx(want, rel=1e-9)
        # the same shrink as the parameter reference's, without 4 rho s
        param = finite_t_param_reference(single, 1, T)
        assert param - 4.0 * 0.5 * s == pytest.approx(want / 2.0, rel=1e-9)
        with pytest.raises(ValueError):
            finite_t_pred_reference(real, 3, 100)

    def test_prior_limits_against_monte_carlo(self):
        # closed-form Beta second moments vs numpy's own beta sampler
        prior = PriorSpec()
        law = EigenvalueLaw.power_law(1.5)
        rng = np.random.default_rng(55)
        mc_param = 0.0
        mc_pred = 0.0
        for k, C_k in enumerate(eigenvalues(law, 5).tolist(), start=1):
            draws = rng.beta(2.0**k, 1.01, size=1_000_000)
            term = float(np.mean(1.0 - draws**2))
            mc_param += term
            mc_pred += C_k * term
        assert prior_param_limit(prior, 5) == pytest.approx(mc_param, rel=5e-3)
        assert prior_pred_limit(law, prior, 5) == pytest.approx(mc_pred, rel=5e-3)

    def test_prior_limit_consistency_with_moments(self):
        # the array rules against per-component scalar loops over the
        # moments a(a+1) / ((a+b)(a+b+1)) of a = 2**j, b = 1.01: each term
        # takes the same IEEE operations into the same fsum, so the bits agree
        prior = PriorSpec()
        for exponent in (1.5, 1.1, 2.0):
            law = EigenvalueLaw.power_law(exponent)
            for k in (1, 5, 39, 511):
                param, pred = [], []
                for j in range(1, k + 1):
                    a, b = 2.0**j, 1.01
                    term = 1.0 - a * (a + 1.0) / ((a + b) * (a + b + 1.0))
                    param.append(term)
                    pred.append(float(j) ** -exponent * term)
                assert prior_param_limit(prior, k) == math.fsum(param)
                assert prior_pred_limit(law, prior, k) == math.fsum(pred)

    def test_prior_limits_finite_at_largest_default_shape(self):
        # 2**511 is the last prior shape whose moments stay finite; the
        # terms past k ~ 60 no longer change either sum
        prior = PriorSpec()
        law = EigenvalueLaw.power_law(2.0)
        assert prior_param_limit(prior, 511) == pytest.approx(1.27370810940, rel=1e-10)
        assert prior_pred_limit(law, prior, 511) == pytest.approx(0.62001128545, rel=1e-10)


class TestTruncationOrder:
    def test_power_rule_on_paper_grid(self):
        rule = KtRule("power", 4.1)
        got = tuple(truncation_order(T, rule) for T in PAPER_T_GRID)
        assert got == (3, 4, 5, 5, 5, 5, 6, 6)

    def test_power_rule_refuses_t_beyond_float_range(self):
        # a ValueError that names T by its digit count, not an OverflowError
        # that prints T, or 401 digits of it
        rule = KtRule("power", 4.1)
        with pytest.raises(ValueError, match=r"^T of 401 digits ") as exc:
            truncation_order(10**400, rule)
        assert "0" * 20 not in str(exc.value)
        # past Python's 4,300-digit limit on int-to-str, the count still comes out
        with pytest.raises(ValueError, match=r"^T of 5001 digits is too large for a power rule$"):
            truncation_order(10**5000, rule)
        # the edge is the float conversion's own: the largest int that
        # rounds to a finite float keeps its k_T, the next one is refused
        edge = 2**1024 - 2**970
        assert truncation_order(edge - 1, rule) == math.floor(sys.float_info.max ** (1 / 4.1))
        with pytest.raises(ValueError, match=r"^T of 309 digits "):
            truncation_order(edge, rule)

    def test_fixed_rule(self):
        for rule in (KtRule("fixed", 5), KtRule("fixed", np.int64(5))):
            assert rule == KtRule("fixed", 5)
            assert all(truncation_order(T, rule) == 5 for T in (1, 250, 10_000))

    @pytest.mark.parametrize("k", [
        2.5,  # not floored to 2
        True,  # not taken as 1
        math.inf,  # not an OverflowError
        1e300,  # not a rule of 10**300 components
        5.0,
        pytest.param("5", id="str"),
        -3,
    ])
    def test_fixed_rule_needs_integer(self, k):
        # each refusal is a ValueError, and no count is coerced
        with pytest.raises(ValueError, match="positive integer"):
            KtRule("fixed", k)

    def test_power_rule_guards_prediction_regime(self):
        # alpha must exceed 4 so sqrt(T) * C_{k_T} diverges for quadratic
        # eigenvalue decay: the growth exponent 1/2 - 2/alpha stays positive
        assert 0.5 - 2.0 / 4.1 > 0
        with pytest.raises(ValueError):
            KtRule("power", 4.0)
        with pytest.raises(ValueError):
            KtRule("power", 3.0)

    @pytest.mark.parametrize(
        "alpha", [math.inf, float("1e400"), math.nan, -math.inf, True,
                  pytest.param("4.1", id="str"), pytest.param(10**400, id="10**400")]
    )
    def test_power_rule_needs_finite_alpha(self, alpha):
        # T ** (1 / inf) is 1, so an infinite alpha would keep k_T = 1 at
        # every T; 1 / 10**400 overflows, and True and "4.1" are not numbers
        with pytest.raises(ValueError, match="finite alpha > 4"):
            KtRule("power", alpha)

    def test_nondecreasing_in_T(self):
        rule = KtRule("power", 4.1)
        orders = [truncation_order(T, rule) for T in range(1, 3000, 7)]
        assert all(u <= v for u, v in zip(orders, orders[1:]))

    def test_exact_integer_powers_not_floored_away(self):
        for rule in (KtRule("power", 5.0), KtRule("power", 5), KtRule("power", np.float64(5))):
            assert truncation_order(2**5, rule) == 2
            assert truncation_order(3**5, rule) == 3

    def test_parse_kind_and_value(self):
        # int() reads a count and float() an exponent, whitespace and all
        for text, kind, value in (
            ("fixed:5", "fixed", 5), ("fixed: 5", "fixed", 5), ("fixed:+5", "fixed", 5),
            ("fixed:05", "fixed", 5), ("fixed:1_0", "fixed", 10), ("power:4.1", "power", 4.1),
            ("power:5", "power", 5.0), ("power:1e1", "power", 10.0), ("power: 4.5 ", "power", 4.5),
        ):
            rule = KtRule.parse(text)
            assert (rule.kind, rule.value, type(rule.value)) == (kind, value, type(value))
        for text in (
            "fixed", "other:3", "Fixed:5", " power:5", "fixed:", "fixed:2.5", "fixed:inf",
            "fixed:True", "fixed:0", "fixed:-1", "power:4", "power:nan", "power:inf",
            "power:1e400", "power:abc",
        ):
            with pytest.raises(ValueError, match="truncation rule"):
                KtRule.parse(text)
        with pytest.raises(ValueError):
            KtRule("fixed", 0)
        with pytest.raises(ValueError):
            truncation_order(0, KtRule("fixed", 5))


class TestBartlett:
    def test_targets(self):
        _, targets, _ = bartlett_check([1], 0.6, 1.0, 50, 10)
        assert targets["limit"] == pytest.approx(0.64, rel=1e-15)
        _, targets, _ = bartlett_check([1], 0.9, 2.0, 50, 10)
        assert targets["limit"] == pytest.approx(0.19, rel=1e-14)
        assert targets["tolerance"] == pytest.approx(0.019, rel=1e-14)

    def test_white_noise_limit(self):
        outputs, targets, verdict = bartlett_check([2], 0.0, 1.0, 4000, 4000)
        assert targets["limit"] == 1.0
        assert abs(outputs["t_mse"] - 1.0) < 0.1
        assert verdict is True

    def test_validation(self):
        for args in ((1.0, 1.0, 10, 10), (0.5, 0.0, 10, 10), (0.5, 1.0, 0, 10), (0.5, 1.0, 10, 0)):
            with pytest.raises(ValueError):
                bartlett_check([0], *args)

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


@pytest.mark.parametrize("check, args", [
    (bartlett_check, (0.6, 1.0, 130)),
    (normality_check, (0.6, 130)),
])
def test_checks_run_the_study_time_loop(monkeypatch, check, args):
    # the Bartlett and normality checks run the study's time loop: each
    # chunk of AR1_PATH_CHUNK paths is one single-stream run of fold_runs,
    # a column a path, with the same outputs
    fold_runs, runs = harness.fold_runs, []

    def counted(group, rngs, *rest):
        runs.append([(T, k, len(omegas), len(r)) for (T, k, omegas), r in zip(group, rngs)])
        return fold_runs(group, rngs, *rest)

    N = 2 * AR1_PATH_CHUNK + 3
    plain = check([4], *args, N)
    monkeypatch.setattr(harness, "fold_runs", counted)
    assert check([4], *args, N) == plain
    assert runs == [[(130, m, 1, 1)] for m in (AR1_PATH_CHUNK, AR1_PATH_CHUNK, 3)]


class TestNormality:
    def test_score_moments(self):
        # the scores normality_check tests, drawn from the same stream
        rho_hats = _ar1_rho_hat_samples(0.5, 1.0, 3000, 2000, np.random.default_rng(3))
        z = math.sqrt(3000) * (rho_hats - 0.5) / math.sqrt(1.0 - 0.25)
        assert abs(float(np.mean(z))) < 3.0 / math.sqrt(2000)
        assert abs(float(np.var(z)) - 1.0) < 0.15
        outputs, targets, _ = normality_check([3], 0.5, 3000, 2000)
        assert outputs["ks_distance"] == ks_distance_to_normal(z)
        assert targets["critical_value"] == 1.73 / math.sqrt(2000)

    def test_needs_enough_paths(self):
        with pytest.raises(ValueError):
            normality_check([0], 0.5, 100, 99)

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
        c_hat, d_hat = ergodic_estimates(np.full(6, 3.0))
        assert c_hat == pytest.approx(9.0, rel=1e-15)
        assert d_hat == pytest.approx(9.0 * 5 / 4, rel=1e-15)

    def test_zero_column(self):
        assert ergodic_estimates(np.zeros(5)) == (0.0, 0.0)

    def test_bounds(self):
        for rho, C, n in ((0.5, 1.0, 1), (1.0, 1.0, 10), (0.5, 0.0, 10), (0.5, math.inf, 10)):
            with pytest.raises(ValueError):
                ergodic_check([0], rho, C, n)

    def test_converges_to_stationary_moments(self):
        # sigma2 as ergodic_check forms it, 0.18999999999999995
        real = ModelRealization(C=[1.0], rho=[0.9], sigma2=[1.0 - 0.9 * 0.9])
        traj = simulate(real, 50_000, np.random.default_rng(10))
        c_hat, d_hat = ergodic_estimates(traj.coeffs[:, 0])
        assert abs(c_hat - 1.0) < 0.15
        assert abs(d_hat / c_hat - 0.9) < 0.02
        outputs, _, verdict = ergodic_check([10], 0.9, 1.0, 50_000)
        assert (outputs["c_hat"], outputs["d_hat"], verdict) == (c_hat, d_hat, True)


class TestReportShape:
    def test_fields_mirror_csv_columns(self):
        import dataclasses

        names = [f.name for f in dataclasses.fields(EfmseReport)]
        assert names == [
            "example", "T", "N", "kT", "estimator", "efmse_param", "efmse_pred",
            "t_efmse_param", "theory_param_limit", "theory_pred_limit",
            "ref_one_over_T",
        ]
