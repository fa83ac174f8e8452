"""Error metrics, asymptotic reference limits, and statistical diagnostics.

The central quantities are the truncated empirical functional mean-square
errors over N Monte Carlo replications,

    efmse_param = (1/N) sum_w sum_{j<=k_T} (est_j^w - rho_j^w)**2
    efmse_pred  = (1/N) sum_w sum_{j<=k_T} (est_j^w - rho_j^w)**2 * (X_{T,j}^w)**2,

and their theoretical large-T limits: T * efmse_param tends to
sum_{j<=k_T} (1 - rho_j**2) and T * efmse_pred to
sum_{j<=k_T} C_j * (1 - rho_j**2) for both estimators.  The diagnostics
(Bartlett limit, asymptotic normality, ergodic second moments) validate the
scalar AR(1) machinery those limits rest on.  Each is one function
(``bartlett_check``, ``normality_check``, ``ergodic_check``) that
range-checks its parameters, draws from ``default_rng(key)`` and returns
its outputs, targets and pass verdict; ``harness.DIAGNOSTICS`` runs it as
it is.  The ergodic check runs ``simulate``, the other two a path engine
sharing ``ar1_steps`` and ``fold_lag_terms``, whose bit-for-bit oracles in
the tests are ``scipy.signal.lfilter`` for the paths and a plain loop for
the sums.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .estimators import fold_lag_terms, minus_root
from .simulator import ar1_steps, simulate
from .spectral_model import (
    EigenvalueLaw, ModelRealization, PriorSpec, eigenvalues, innovation_variance,
    prior_mean_sq, prior_shapes, truncate_realization,
)

# Monte Carlo paths are generated in fixed-size batches; the constant is
# part of the draw-order contract for seeded diagnostics.
AR1_PATH_CHUNK = 512

# Rows of a batch of paths stepped per chunk; it bounds memory only.
AR1_ROW_CHUNK = 64


@dataclass(frozen=True)
class EfmseInput:
    """Per-replication estimation records, stacked as N x k_T arrays.

    ``last_coeffs`` holds the final observed coefficient vector of each
    replication, the weight in the prediction-error metric.
    """

    estimates: np.ndarray
    truth: np.ndarray
    last_coeffs: np.ndarray

    def __post_init__(self):
        est = np.atleast_2d(np.asarray(self.estimates, dtype=float))
        tru = np.atleast_2d(np.asarray(self.truth, dtype=float))
        last = np.atleast_2d(np.asarray(self.last_coeffs, dtype=float))
        if not (est.shape == tru.shape == last.shape):
            raise ValueError(
                f"mismatched record shapes: {est.shape}, {tru.shape}, {last.shape}"
            )
        if est.shape[0] < 1 or est.shape[1] < 1:
            raise ValueError("need at least one replication and one component")
        object.__setattr__(self, "estimates", est)
        object.__setattr__(self, "truth", tru)
        object.__setattr__(self, "last_coeffs", last)

    @property
    def N(self) -> int:
        return self.estimates.shape[0]


def _squared_norms(d) -> np.ndarray:
    """Each row's sum of squares, added in component order, so its bits do
    not depend on how numpy vectorizes a reduction for the host CPU."""
    return np.add.accumulate(d * d, axis=1)[:, -1]


def efmse_param(inp: EfmseInput) -> float:
    """Mean over replications of the summed squared coefficient errors.

    The average over replications is compensated (math.fsum), so batch
    order cannot leak into reported values.
    """
    per_rep = _squared_norms(inp.estimates - inp.truth)
    return math.fsum(per_rep.tolist()) / inp.N


def efmse_pred(inp: EfmseInput) -> float:
    """Like efmse_param with each squared error weighted by the square of the
    last coefficient, X_{T,j}**2."""
    per_rep = _squared_norms((inp.estimates - inp.truth) * inp.last_coeffs)
    return math.fsum(per_rep.tolist()) / inp.N


def theory_param_limit(real, k_T: int) -> float:
    """Limit of T * efmse_param for a fixed realization: sum (1 - rho_j**2)."""
    return float(np.sum(1.0 - truncate_realization(real, k_T).rho ** 2))


def _finite_t_shrink(real, k_T: int, T: int):
    """The first k_T components of a fixed realization and each one's shrink
    s_j = rho_hat - rho_tilde_minus of the minus root at the sums the
    component has on average, beta = T * C_j and alpha = rho_j * beta."""
    real = truncate_realization(real, k_T)
    beta = T * real.C
    alpha = real.rho * beta
    return real, alpha / beta - minus_root(alpha, beta, real.sigma2, *prior_shapes(k_T))


def finite_t_param_reference(real, k_T: int, T: int) -> float:
    """Reference for T * efmse_param of the Bayes estimator at sample size T
    for a fixed realization: sum (1 - rho_j**2) + T * s_j**2 + 4 * rho_j * s_j.

    s_j is the shrink of ``_finite_t_shrink``; 4 * rho_j * s_j is -2T * s_j
    times the classical bias -2 rho_j / T (Marriott and Pope, 1954; White,
    1961).  The added terms vanish past each component's crossover T*_j
    (see ``estimators``).  It holds where T * (1 - rho_j) is about 30 or
    more; below that it undershoots.
    """
    real, s = _finite_t_shrink(real, k_T, T)
    rho = real.rho
    return float(np.sum(1.0 - rho**2 + T * s**2 + 4.0 * rho * s))


def finite_t_pred_reference(real, k_T: int, T: int) -> float:
    """Reference for T * efmse_pred of the Bayes estimator at sample size T
    for a fixed realization: sum C_j * (1 - rho_j**2 + T * s_j**2), with the
    shrink s_j of ``finite_t_param_reference``.

    There is no cross term: weighted by the last state X_{T,j}**2, the
    classical error e_c = rho_hat - rho has no bias to first order.
    E[e_c * X_T**2] takes -2 rho_j C_j / T from the ratio's bias, as without
    the weight, and +2 rho_j C_j / T from the covariance of the numerator
    sum eps_i x_{i-1} with X_T**2; so the C_j-weighted 4 * rho_j * s_j of
    the parameter reference does not appear (Phillips, 1979; Fuller and
    Hasza, 1981, on forecast error and the last observation).  It holds
    where the parameter reference does.
    """
    real, s = _finite_t_shrink(real, k_T, T)
    return float(np.sum(real.C * (1.0 - real.rho**2 + T * s**2)))


def theory_pred_limit(real, k_T: int) -> float:
    """Limit of T * efmse_pred for a fixed realization: sum C_j (1 - rho_j**2)."""
    real = truncate_realization(real, k_T)
    return float(np.sum(real.C * (1.0 - real.rho**2)))


def prior_param_limit(prior: PriorSpec, k_T: int) -> float:
    """Prior expectation of the parameter limit: sum (1 - E rho_j**2).

    Used as the comparison target when coefficients are redrawn per
    replication, where no single realization defines the limit.  ``prior``
    is unused, here and in ``prior_pred_limit``: the prior is the one rule
    of ``prior_shapes``, and the argument stays while perfbench passes it
    (ROADMAP item 4).
    """
    return math.fsum((1.0 - prior_mean_sq(k_T)).tolist())


def prior_pred_limit(law: EigenvalueLaw, prior: PriorSpec, k_T: int) -> float:
    """Prior expectation of the prediction limit: sum C_j (1 - E rho_j**2)."""
    return math.fsum((eigenvalues(law, k_T) * (1.0 - prior_mean_sq(k_T))).tolist())


@dataclass(frozen=True)
class KtRule:
    """Truncation-order rule: ("fixed", k) keeps k components, ("power", a) floor(T**(1/a))."""

    kind: str
    value: float

    def __post_init__(self):
        # True is neither a count nor an exponent
        v, number = self.value, not isinstance(self.value, bool)
        if self.kind == "fixed":
            if not (number and isinstance(v, numbers.Integral) and v >= 1):
                raise ValueError(f"fixed truncation order must be a positive integer, got {v!r}")
        elif self.kind == "power":
            # alpha > 4 keeps sqrt(T) * C_{k_T} divergent for the
            # quadratic-decay example, the regime the prediction theory needs;
            # an infinite alpha would keep k_T = 1 at every T.
            if not (number and isinstance(v, numbers.Real) and 4.0 < v <= sys.float_info.max):
                raise ValueError(
                    f"power rule needs a finite alpha > 4 so that sqrt(T) * C_kT "
                    f"diverges, got alpha={v!r}"
                )
        else:
            raise ValueError(f"unknown truncation rule kind {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "KtRule":
        """Parse the spelled form used by configs and the CLI, e.g. ``fixed:5``."""
        kind, sep, raw = text.partition(":")
        if not sep or kind not in ("fixed", "power"):
            raise ValueError(
                f"truncation rule must look like 'fixed:5' or 'power:4.1', got {text!r}"
            )
        try:
            return cls(kind, int(raw) if kind == "fixed" else float(raw))
        except ValueError as exc:
            raise ValueError(f"bad truncation rule {text!r}: {exc}") from exc


def truncation_order(T: int, rule: KtRule) -> int:
    """Number of components retained at sample size T."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if rule.kind == "fixed":
        return int(rule.value)
    try:
        root = T ** (1.0 / rule.value)
    except OverflowError:  # an int T beyond float range, too long to print in a message
        from decimal import Decimal  # not str(T): Python refuses it past 4,300 digits
        digits = Decimal(T).adjusted() + 1
        raise ValueError(f"T of {digits} digits is too large for a power rule") from None
    # Small upward nudge so exact integer powers are not floored away by
    # the rounding of T**(1/alpha).
    return max(1, int(math.floor(root + 1e-12)))


def _ar1_rho_hat_samples(
    rho: float, sigma: float, T: int, N: int, rng: np.random.Generator
) -> np.ndarray:
    """Moment estimates from N independent stationary scalar AR(1) paths.

    The path engine: paths run in chunks of AR1_PATH_CHUNK and their rows
    in chunks of AR1_ROW_CHUNK, so memory does not grow with T.  Each row
    chunk is stepped by ``ar1_steps`` and folded by ``fold_lag_terms``;
    row 0 of x carries the state in from the chunk before.
    """
    out = np.empty(N)
    scale0 = sigma / math.sqrt(1.0 - rho * rho)
    for lo in range(0, N, AR1_PATH_CHUNK):
        m = min(AR1_PATH_CHUNK, N - lo)
        x = np.empty((AR1_ROW_CHUNK + 1, m))
        p = np.empty((AR1_ROW_CHUNK + 1, m))
        sums = np.zeros((2, m))
        x[0] = scale0 * rng.standard_normal(m)
        for t in range(0, T, AR1_ROW_CHUNK):
            n = min(AR1_ROW_CHUNK, T - t)
            np.multiply(sigma, rng.standard_normal((n, m)), out=x[1 : n + 1])
            ar1_steps(x[: n + 1], rho)
            fold_lag_terms(x[: n + 1], sums, p[: n + 1])
            x[0] = x[n]
        # the fold raises no warning, so an overflow is caught here
        if not np.isfinite(sums).all():
            raise FloatingPointError("overflow encountered in the lag sums")
        out[lo : lo + m] = sums[0] / sums[1]
    return out


def bartlett_check(key, rho: float, sigma2: float, T: int, N: int) -> tuple[dict, dict, bool]:
    """Bartlett limit T * E(rho_hat - rho)**2 -> 1 - rho**2, on N paths of
    length T drawn from ``default_rng(key)``.

    Returns (outputs, targets, verdict): the empirical T * mean squared
    error, the limit with its 10% tolerance, and whether it lies within.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (-1, 1), got {rho}")
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    rho_hats = _ar1_rho_hat_samples(rho, math.sqrt(sigma2), T, N, np.random.default_rng(key))
    t_mse = T * float(np.mean((rho_hats - rho) ** 2))
    limit = 1.0 - rho * rho
    tol = 0.1 * limit
    return {"t_mse": t_mse}, {"limit": limit, "tolerance": tol}, abs(t_mse - limit) <= tol


def _normal_cdf(z) -> np.ndarray:
    """Standard normal distribution function, as 0.5 * erfc(-z / sqrt(2))."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in np.ravel(z).tolist()])


def ks_distance_to_normal(z) -> float:
    """Kolmogorov-Smirnov distance of a sample to the standard normal law."""
    zs = np.sort(np.asarray(z, dtype=float))
    n = zs.size
    if n < 1:
        raise ValueError("KS distance needs a nonempty sample")
    cdf = _normal_cdf(zs)
    steps = np.arange(n + 1) / n
    return float(max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1])))


# One-sided 0.5% Kolmogorov-Smirnov critical value is KS_CRITICAL / sqrt(N).
KS_CRITICAL = 1.73


def normality_check(key, rho: float, T: int, N: int) -> tuple[dict, dict, bool]:
    """Asymptotic normality of the scores z = sqrt(T) * (rho_hat - rho) /
    sqrt(1 - rho**2), on N paths of length T drawn from ``default_rng(key)``
    with unit innovation variance (the scores are scale invariant).

    Returns (outputs, targets, verdict): the scores' KS distance to the
    standard normal, the critical value KS_CRITICAL / sqrt(N), and whether
    the distance is within it.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (-1, 1), got {rho}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if N < 100:
        raise ValueError(f"normality check needs N >= 100, got {N}")
    rho_hats = _ar1_rho_hat_samples(rho, 1.0, T, N, np.random.default_rng(key))
    ks = ks_distance_to_normal(math.sqrt(T) * (rho_hats - rho) / math.sqrt(1.0 - rho * rho))
    crit = KS_CRITICAL / math.sqrt(N)
    return {"ks_distance": ks}, {"critical_value": crit}, ks <= crit


def ergodic_estimates(x) -> tuple[float, float]:
    """Time averages of the second moments of one path x[0..n].

    c_hat = (1/n) sum_{i=1..n} x[i-1]**2 estimates the variance C; d_hat =
    (1/(n-1)) sum_{i=1..n} x[i-1]*x[i] estimates the lag-one moment (its
    normalization makes d_hat/c_hat = (n/(n-1)) * alpha/beta).
    """
    n = len(x) - 1
    lagged = x[:-1]
    c_hat = math.fsum((lagged * lagged).tolist()) / n
    d_hat = math.fsum((lagged * x[1:]).tolist()) / (n - 1)
    return c_hat, d_hat


def ergodic_check(key, rho: float, C: float, n: int) -> tuple[dict, dict, bool]:
    """Ergodic second moments of one stationary AR(1) path of variance C and
    n transitions, which ``simulate`` draws from ``default_rng(key)``.

    Returns (outputs, targets, verdict): c_hat, d_hat and their ratio; C
    within 5% and rho * n / (n - 1) within 0.02; and whether both hold.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (-1, 1), got {rho}")
    if not 0.0 < C < math.inf:
        raise ValueError(f"C must be positive and finite, got {C}")
    if n < 2:
        raise ValueError(f"ergodic averages need n >= 2, got {n}")
    sigma2 = innovation_variance(np.array([C]), np.array([rho]))
    real = ModelRealization(C=[C], rho=[rho], sigma2=sigma2)
    c_hat, d_hat = ergodic_estimates(simulate(real, n, np.random.default_rng(key)).coeffs[:, 0])
    ratio = rho * n / (n - 1)
    return (
        {"c_hat": c_hat, "d_hat": d_hat, "ratio": d_hat / c_hat},
        {"c": C, "c_tolerance": 0.05 * C, "ratio": ratio, "ratio_tolerance": 0.02},
        abs(c_hat - C) <= 0.05 * C and abs(d_hat / c_hat - ratio) <= 0.02,
    )


@dataclass(frozen=True)
class EfmseReport:
    """One (T, estimator) row of an experiment; field names match the CSV."""

    example: str
    T: int
    N: int
    kT: int
    estimator: str
    efmse_param: float
    efmse_pred: float
    t_efmse_param: float
    theory_param_limit: float
    theory_pred_limit: float
    ref_one_over_T: float
