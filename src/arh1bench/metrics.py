"""Error metrics, asymptotic reference limits, and statistical diagnostics.

The central quantities are the truncated empirical functional mean-square
errors over N Monte Carlo replications,

    efmse_param = (1/N) sum_w sum_{j<=k_T} (est_j^w - rho_j^w)**2
    efmse_pred  = (1/N) sum_w sum_{j<=k_T} (est_j^w - rho_j^w)**2 * (X_{T,j}^w)**2,

and their theoretical large-T limits: T * efmse_param tends to
sum_{j<=k_T} (1 - rho_j**2) and T * efmse_pred to
sum_{j<=k_T} C_j * (1 - rho_j**2) for both estimators.  The diagnostics
(Bartlett limit, asymptotic normality, ergodic second moments) validate the
scalar AR(1) machinery those limits rest on, using an internal path
generator that shares no code with the trajectory simulator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulator import Trajectory
from .spectral_model import EigenvalueLaw, PriorSpec, eigenvalue, prior_mean_sq

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


def efmse_param(inp: EfmseInput) -> float:
    """Mean over replications of the summed squared coefficient errors.

    The per-replication sums (at most a handful of components) are plain
    float64; the average over replications is compensated so batch order
    cannot leak into reported values.
    """
    d = inp.estimates - inp.truth
    per_rep = np.einsum("ij,ij->i", d, d)
    return math.fsum(per_rep.tolist()) / inp.N


def efmse_pred(inp: EfmseInput) -> float:
    """Like efmse_param with each squared error weighted by the last coefficient."""
    d = (inp.estimates - inp.truth) * inp.last_coeffs
    per_rep = np.einsum("ij,ij->i", d, d)
    return math.fsum(per_rep.tolist()) / inp.N


def theory_param_limit(real, k_T: int) -> float:
    """Limit of T * efmse_param for a fixed realization: sum (1 - rho_j**2)."""
    if not 1 <= k_T <= real.k:
        raise ValueError(f"k_T={k_T} out of range 1..{real.k}")
    return float(np.sum(1.0 - real.rho[:k_T] ** 2))


def theory_pred_limit(real, k_T: int) -> float:
    """Limit of T * efmse_pred for a fixed realization: sum C_j (1 - rho_j**2)."""
    if not 1 <= k_T <= real.k:
        raise ValueError(f"k_T={k_T} out of range 1..{real.k}")
    return float(np.sum(real.C[:k_T] * (1.0 - real.rho[:k_T] ** 2)))


def prior_param_limit(prior: PriorSpec, k_T: int) -> float:
    """Prior expectation of the parameter limit: sum (1 - E rho_j**2).

    Used as the comparison target when coefficients are redrawn per
    replication, where no single realization defines the limit.  ``prior``
    is unused, here and in ``prior_pred_limit``: the prior is the one rule
    of ``prior_params``, and the argument stays while perfbench passes it
    (ROADMAP item 4).
    """
    return math.fsum(1.0 - prior_mean_sq(j) for j in range(1, k_T + 1))


def prior_pred_limit(law: EigenvalueLaw, prior: PriorSpec, k_T: int) -> float:
    """Prior expectation of the prediction limit: sum C_j (1 - E rho_j**2)."""
    return math.fsum(
        eigenvalue(law, j) * (1.0 - prior_mean_sq(j))
        for j in range(1, k_T + 1)
    )


@dataclass(frozen=True)
class KtRule:
    """Truncation-order rule: a fixed component count or floor(T**(1/alpha))."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind == "fixed":
            if self.value < 1 or self.value != int(self.value):
                raise ValueError(f"fixed truncation order must be a positive integer, got {self.value}")
        elif self.kind == "power":
            # alpha > 4 keeps sqrt(T) * C_{k_T} divergent for the
            # quadratic-decay example, the regime the prediction theory needs.
            if not self.value > 4.0:
                raise ValueError(
                    f"power rule needs alpha > 4 so that sqrt(T) * C_kT diverges, "
                    f"got alpha={self.value}"
                )
        else:
            raise ValueError(f"unknown truncation rule kind {self.kind!r}")

    @classmethod
    def fixed(cls, k: int) -> "KtRule":
        return cls(kind="fixed", value=int(k))

    @classmethod
    def power(cls, alpha: float) -> "KtRule":
        return cls(kind="power", value=float(alpha))

    @classmethod
    def parse(cls, text: str) -> "KtRule":
        """Parse the spelled form used by configs and the CLI, e.g. ``fixed:5``."""
        kind, sep, raw = text.partition(":")
        if not sep or kind not in ("fixed", "power"):
            raise ValueError(
                f"truncation rule must look like 'fixed:5' or 'power:4.1', got {text!r}"
            )
        try:
            if kind == "fixed":
                return cls.fixed(int(raw))
            return cls.power(float(raw))
        except ValueError as exc:
            raise ValueError(f"bad truncation rule {text!r}: {exc}") from exc

    def __str__(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{int(self.value)}"
        return f"power:{self.value:g}"


def truncation_order(T: int, rule: KtRule) -> int:
    """Number of components retained at sample size T."""
    if T < 1:
        raise ValueError(f"sample size must be >= 1, got {T}")
    if rule.kind == "fixed":
        return int(rule.value)
    # Small upward nudge so exact integer powers are not floored away by
    # the rounding of T**(1/alpha).
    return max(1, int(math.floor(T ** (1.0 / rule.value) + 1e-12)))


def _ar1_rho_hat_samples(
    rho: float, sigma: float, T: int, N: int, rng: np.random.Generator
) -> np.ndarray:
    """Moment estimates from N independent stationary scalar AR(1) paths.

    Standalone path engine (a time loop vectorized over paths in fixed
    chunks); kept free of the trajectory simulator on purpose so the two
    can vouch for each other.  The rows run in chunks of AR1_ROW_CHUNK, so
    memory does not grow with T; row 0 of each buffer carries the state
    and the sums of alpha and beta terms in from the chunk before.
    """
    out = np.empty(N)
    scale0 = sigma / math.sqrt(1.0 - rho * rho)
    for lo in range(0, N, AR1_PATH_CHUNK):
        m = min(AR1_PATH_CHUNK, N - lo)
        x = np.empty((AR1_ROW_CHUNK + 1, m))
        terms = np.zeros((AR1_ROW_CHUNK + 1, 2, m))
        x[0] = scale0 * rng.standard_normal(m)
        for t in range(0, T, AR1_ROW_CHUNK):
            n = min(AR1_ROW_CHUNK, T - t)
            np.multiply(sigma, rng.standard_normal((n, m)), out=x[1 : n + 1])
            prev = x[0]
            for row in x[1 : n + 1]:
                row += rho * prev
                prev = row
            np.multiply(x[:n], x[1 : n + 1], out=terms[1 : n + 1, 0])
            np.multiply(x[:n], x[:n], out=terms[1 : n + 1, 1])
            # a sum over the outer axis adds row after row, in order
            terms[0] = terms[: n + 1].sum(axis=0)
            x[0] = x[n]
        out[lo : lo + m] = terms[0, 0] / terms[0, 1]
    return out


def bartlett_check(
    rho: float, sigma2: float, T: int, N: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo check of the scaled-error limit T * E(rho_hat - rho)**2.

    Returns the empirical T * mean squared error and its limit 1 - rho**2.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (-1, 1), got {rho}")
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    if T < 1 or N < 1:
        raise ValueError("T and N must be positive")
    rho_hats = _ar1_rho_hat_samples(rho, math.sqrt(sigma2), T, N, rng)
    t_mse = T * float(np.mean((rho_hats - rho) ** 2))
    return t_mse, 1.0 - rho * rho


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


def normality_check(
    rho: float, T: int, N: int, rng: np.random.Generator
) -> tuple[float, np.ndarray]:
    """KS distance of the standardized estimates to the standard normal.

    Scores are z = sqrt(T) * (rho_hat - rho) / sqrt(1 - rho**2); unit
    innovation variance is used since the scores are scale invariant.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (-1, 1), got {rho}")
    if T < 1:
        raise ValueError(f"T must be positive, got {T}")
    if N < 100:
        raise ValueError(f"normality check needs N >= 100, got {N}")
    rho_hats = _ar1_rho_hat_samples(rho, 1.0, T, N, rng)
    z = math.sqrt(T) * (rho_hats - rho) / math.sqrt(1.0 - rho * rho)
    return ks_distance_to_normal(z), z


def ergodic_estimates(traj: Trajectory, j: int, n: int) -> tuple[float, float]:
    """Time averages of the second moments over the first n transitions.

    c_hat = (1/n) sum_{i=1..n} x[i-1]**2 estimates the coefficient variance
    C_j; d_hat = (1/(n-1)) sum_{i=1..n} x[i-1]*x[i] estimates the lag-one
    moment (its normalization makes d_hat/c_hat = (n/(n-1)) * alpha/beta).
    """
    if n < 2:
        raise ValueError(f"ergodic averages need n >= 2, got {n}")
    if n > traj.T:
        raise IndexError(f"horizon n={n} exceeds trajectory length T={traj.T}")
    if not 1 <= j <= traj.k:
        raise IndexError(f"component {j} out of range 1..{traj.k}")
    col = traj.coeffs[:, j - 1]
    lagged = col[:n]
    c_hat = math.fsum((lagged * lagged).tolist()) / n
    d_hat = math.fsum((lagged * col[1 : n + 1]).tolist()) / (n - 1)
    return c_hat, d_hat


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
