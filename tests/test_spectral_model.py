import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

from arh1bench.spectral_model import (
    EigenvalueLaw,
    ModelRealization,
    RHO_CLAMP_EPS,
    SpectralModelSpec,
    draw_rho,
    eigenvalues,
    prior_mean_sq,
    prior_shapes,
    realize,
    truncate_realization,
)


class TestEigenvalueLaw:
    def test_power_law_values(self):
        C = eigenvalues(EigenvalueLaw.power_law(1.5), 4)
        assert C[0] == 1.0
        assert C[3] == 0.125
        assert eigenvalues(EigenvalueLaw.power_law(2.0), 3)[2] == pytest.approx(1 / 9, rel=1e-15)

    def test_power_law_strictly_decreasing(self):
        vals = eigenvalues(EigenvalueLaw.power_law(1.1), 30).tolist()
        assert all(u > v for u, v in zip(vals, vals[1:]))

    def test_power_law_needs_trace_class_exponent(self):
        with pytest.raises(ValueError):
            EigenvalueLaw.power_law(1.0)
        with pytest.raises(ValueError):
            EigenvalueLaw.power_law(0.5)
        # an infinite exponent would give C = [1, 0, 0, ...] and zero
        # innovation variances past the first component
        with pytest.raises(ValueError, match="finite"):
            EigenvalueLaw(exponent=math.inf)

    @pytest.mark.parametrize("exponent", [1.5, 1.1, 2.0])
    def test_eigenvalues_are_python_float_powers(self, exponent):
        # the examples' exponents, bit for bit against float(j) ** -p; numpy's
        # own array ** (numpy 2.4.6, x86-64) misses in the last bit at j = 58
        # for 1.5, j = 2 and 59 for 1.1, and j = 31, 55, 62 and 63 for 2.0
        got = eigenvalues(EigenvalueLaw.power_law(exponent), 64)
        want = np.array([float(j) ** -exponent for j in range(1, 65)])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_index_validation(self):
        with pytest.raises(ValueError):
            eigenvalues(EigenvalueLaw.power_law(1.5), 0)


# The k at which the prior's E(rho_k)**2 < E(rho_k**2) < E(rho_k) hold
# strictly in float64: from k = 27 on, Var(rho_k) ~ 1.01 * 4**-k falls
# below the spacing of doubles near 1 and the first two round together.
_DISTINCT_MOMENTS = range(1, 27)


class TestPrior:
    def test_default_rule(self):
        a, b = prior_shapes(50)
        assert (a[0], a[2], a[49]) == (2.0, 8.0, 2.0**50)
        assert np.all(b == 1.01)

    def test_default_rule_overflow(self):
        a, b = prior_shapes(511)
        assert a.tolist() == [2.0**j for j in range(1, 512)]
        assert b.tolist() == [1.01] * 511
        with pytest.raises(OverflowError):
            prior_shapes(512)
        with pytest.raises(OverflowError):
            prior_shapes(1030)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            prior_shapes(0)

    def test_moments_against_scipy(self):
        second = prior_mean_sq(_DISTINCT_MOMENTS[-1])
        for j, a, b in zip(_DISTINCT_MOMENTS, *prior_shapes(_DISTINCT_MOMENTS[-1])):
            mean, var = sps.beta.stats(a, b, moments="mv")
            assert second[j - 1] == pytest.approx(float(var) + float(mean) ** 2, rel=1e-12)

    def test_summability_terms_decreasing(self):
        # the prior-variance series for the rule must stay summable:
        # positive, strictly decreasing terms with a finite partial sum
        terms = [float(sps.beta.var(a, b)) for a, b in zip(*prior_shapes(60))]
        assert all(t > 0.0 for t in terms)
        assert all(u > v for u, v in zip(terms, terms[1:]))
        assert math.fsum(terms) < 1.0

    def test_draw_rho_sample_moments(self):
        rng = np.random.default_rng(101)
        draws = draw_rho(*prior_shapes(1), [rng] * 100_000)[:, 0]
        assert abs(draws.mean() - 2.0 / 3.01) < 0.005
        target_var = float(sps.beta.var(2.0, 1.01))
        assert abs(draws.var() - target_var) < 0.1 * target_var

    def test_draw_rho_concentrates_near_one(self):
        # Beta(2**10, 1.01) puts < 1e-40 mass below 0.9 (numerical CDF),
        # so every draw must land in (0.9, 1)
        assert sps.beta.cdf(0.9, 2.0**10, 1.01) < 1e-40
        rng = np.random.default_rng(7)
        a, b = prior_shapes(10)
        draws = draw_rho(a[-1:], b[-1:], [rng] * 10_000)
        assert np.all((0.9 < draws) & (draws < 1.0))

    def test_draw_rho_distribution_matches_beta_cdf(self):
        # the gamma-ratio sampler against scipy's Beta distribution function
        rng = np.random.default_rng(5)
        a, b = prior_shapes(3)
        draws = draw_rho(a[-1:], b[-1:], [rng] * 4_000)[:, 0]
        _, pvalue = sps.kstest(draws, sps.beta(8.0, 1.01).cdf)
        assert pvalue > 1e-3

    def test_draw_rho_deterministic(self):
        shapes = prior_shapes(3)
        a = draw_rho(*shapes, [np.random.default_rng(3), np.random.default_rng(4)])
        b = draw_rho(*shapes, [np.random.default_rng(3), np.random.default_rng(4)])
        assert np.array_equal(a, b)
        assert np.array_equal(a[0], draw_rho(*shapes, [np.random.default_rng(3)])[0])

    def test_draw_rho_clamps_into_open_interval(self):
        # a tiny first shape drives G_a / (G_a + G_b) below the clamp, a
        # huge one rounds it to 1
        rng = np.random.default_rng(8)
        draws = draw_rho([1e-6, 1e30], [5.0, 1.0], [rng] * 200)
        assert np.all(draws[:, 0] == RHO_CLAMP_EPS)
        assert np.all(draws[:, 1] == 1.0 - RHO_CLAMP_EPS)

    @pytest.mark.parametrize(
        "a, b",
        [
            *(pytest.param(*prior_shapes(k), id=str(k)) for k in (5, 16, 40)),
            # the shapes nearest numpy's Johnk branch (a <= 1 and b <= 1)
            # that keep b > 1: a < 1 < b, b down to the double just above
            # 1; a numpy that moves its branch rule fails here
            pytest.param(
                [0.01, 0.5, 0.9, 1 - 2**-52], [1.99, 1.5, 1.1, 1 + 2**-52], id="near-johnk"
            ),
        ],
    )
    def test_draw_rho_matches_scalar_gamma_loop(self, a, b):
        # the per-component loop of scalar Gamma draws is the reference:
        # same bits, and the stream left at the same position
        k = len(a)
        for seed in range(200):
            loop = np.random.default_rng([seed, k])
            want = []
            for a_j, b_j in zip(a, b):
                ga, gb = loop.gamma(a_j), loop.gamma(b_j)
                want.append(min(max(ga / (ga + gb), RHO_CLAMP_EPS), 1.0 - RHO_CLAMP_EPS))
            batch = np.random.default_rng([seed, k])
            got = draw_rho(a, b, [batch])[0]
            assert got.tolist() == want
            assert batch.random() == loop.random()

    def test_moment_identity(self):
        # E(rho**2) = Var(rho) + E(rho)**2, and rho**2 < rho on (0, 1)
        seconds = prior_mean_sq(_DISTINCT_MOMENTS[-1]).tolist()
        for a, b, second in zip(*prior_shapes(_DISTINCT_MOMENTS[-1]), seconds):
            a, b = float(a), float(b)
            mean = a / (a + b)
            assert mean * mean < second < mean
            want = float(sps.beta.var(a, b)) + mean * mean
            assert second == pytest.approx(want, rel=1e-9, abs=1e-15)


class TestRealize:
    def test_explicit_sigma2(self):
        # C_1 = 1 under any power law
        spec = SpectralModelSpec(
            law=EigenvalueLaw.power_law(3.0),
            k_max=1,
            rho_mode="explicit",
            rho_values=(0.9,),
        )
        real = realize(spec)
        assert real.sigma2[0] == pytest.approx(0.19, rel=1e-14)
        # rho -> 0 limit: sigma2 = C (explicit mode forbids exactly 0, so
        # build the realization directly)
        real0 = ModelRealization(C=[1.0], rho=[0.0], sigma2=[1.0])
        assert real0.sigma2[0] == 1.0

    def test_redraw_deterministic(self):
        spec = SpectralModelSpec(law=EigenvalueLaw.power_law(1.5), k_max=6)
        r1 = realize(spec, np.random.default_rng(11))
        r2 = realize(spec, np.random.default_rng(11))
        assert np.array_equal(r1.rho, r2.rho)
        assert np.array_equal(r1.sigma2, r2.sigma2)

    def test_redraw_requires_stream(self):
        spec = SpectralModelSpec(law=EigenvalueLaw.power_law(1.5), k_max=3)
        with pytest.raises(ValueError):
            realize(spec)

    def test_variance_identity_exact(self):
        spec = SpectralModelSpec(law=EigenvalueLaw.power_law(1.5), k_max=12)
        real = realize(spec, np.random.default_rng(4))
        assert np.array_equal(real.sigma2, real.C * (1.0 - real.rho**2))
        assert np.all((0.0 < real.rho) & (real.rho < 1.0))

    def test_prefix_stability(self):
        law = EigenvalueLaw.power_law(1.5)
        small = realize(SpectralModelSpec(law=law, k_max=3), np.random.default_rng(9))
        large = realize(SpectralModelSpec(law=law, k_max=7), np.random.default_rng(9))
        assert np.array_equal(small.rho, large.rho[:3])

    def test_truncate(self):
        spec = SpectralModelSpec(law=EigenvalueLaw.power_law(2.0), k_max=6)
        real = realize(spec, np.random.default_rng(2))
        cut = truncate_realization(real, 4)
        assert cut.k == 4
        assert np.array_equal(cut.rho, real.rho[:4])
        with pytest.raises(ValueError):
            truncate_realization(real, 7)
        with pytest.raises(ValueError):
            truncate_realization(real, 0)

    def test_spec_validation(self):
        law = EigenvalueLaw.power_law(1.5)
        # True is not taken as 1 component, 2.5 is not left for realize to
        # fail on, "3" is not a TypeError: each is refused as a ValueError
        for k_max in (0, True, 2.5, "3"):
            with pytest.raises(ValueError, match="integer >= 1"):
                SpectralModelSpec(law=law, k_max=k_max)
        with pytest.raises(ValueError, match="k_max <= 511"):
            SpectralModelSpec(law=law, k_max=512)
        with pytest.raises(TypeError):
            SpectralModelSpec(law=law)  # no default component count
        with pytest.raises(ValueError):
            SpectralModelSpec(law=law, k_max=3, rho_mode="other")
        with pytest.raises(ValueError):
            SpectralModelSpec(law=law, k_max=3, rho_mode="explicit")
        with pytest.raises(ValueError):
            SpectralModelSpec(law=law, k_max=3, rho_mode="explicit", rho_values=(0.5, 0.4))
        with pytest.raises(ValueError):
            SpectralModelSpec(law=law, k_max=1, rho_mode="explicit", rho_values=(1.5,))
        # a value beyond float range is out of (0, 1), not an OverflowError,
        # and one inside it that rounds to 0.0 or 1.0 is refused as well
        for bad in (10**400, -(10**400), Fraction(1, 10**400), Fraction(10**20 - 1, 10**20)):
            with pytest.raises(ValueError, match=r"^explicit rho values must lie strictly in"):
                SpectralModelSpec(law=law, k_max=2, rho_mode="explicit", rho_values=(0.5, bad))
        with pytest.raises(ValueError):
            SpectralModelSpec(law=law, k_max=3, rho_values=(0.5, 0.5, 0.5))
