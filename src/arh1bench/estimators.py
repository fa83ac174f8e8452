"""Componentwise estimators of the autocorrelation coefficients.

For component j of a trajectory x[0..T] the sufficient statistics are

    alpha = sum_{i=1..T} x[i-1] * x[i],      beta = sum_{i=1..T} x[i-1]**2.

The classical moment estimator is alpha / beta.  The Beta(a, b)-prior
estimator is a root of the penalized quadratic

    beta * r**2 - (alpha + beta) * r + alpha + sigma2 * (2 - (a + b)) = 0,

whose discriminant (alpha - beta)**2 - 4*beta*sigma2*(2 - (a + b)) is
nonnegative whenever a + b >= 2.  The smaller ("minus") root is the
estimator with the asymptotic guarantees; the larger root is exposed for
exploration.  Roots are evaluated with the product-form quadratic formula
so that the a + b = 2 reduction to min(alpha/beta, 1) is exact and no
cancellation occurs when alpha is small relative to beta.

``cubic_score_solve`` independently recovers the same stationary points as
roots of the cubic r * (quadratic above) / sigma2 by bracketed root
finding, providing a closed-form-free cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .simulator import Trajectory
from .spectral_model import ModelRealization, PriorSpec, prior_params

# Discriminants more negative than this multiple of (alpha - beta + 1)**2
# cannot be rounding artifacts and signal a genuinely complex root pair.
DISCRIMINANT_GUARD = 1e-10

# Slack for the internal shrinkage-bound verification in estimate_all;
# covers independent rounding of the two estimators, nothing more.
PROXIMITY_SLACK = 1e-9


class DegenerateTrajectoryError(RuntimeError):
    """A component carried no energy (beta = 0), so no estimate exists."""


class ComplexRootError(ValueError):
    """The quadratic has no real roots; solve the cubic score equation instead."""


@dataclass(frozen=True)
class SufficientStats:
    alpha: float
    beta: float
    T: int

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"sufficient statistics need T >= 1, got T={self.T}")
        if self.beta < 0.0:
            raise ValueError(f"beta is a sum of squares and cannot be {self.beta}")


def sufficient_stats(traj: Trajectory, j: int) -> SufficientStats:
    """Compute (alpha, beta) for component j (1-based) of a trajectory.

    Sums are accumulated with exact compensated summation (math.fsum), so
    they agree with a naive reference to within one rounding of the final
    result even for T ~ 1e5 with mixed magnitudes.
    """
    if traj.T < 1:
        raise ValueError("sufficient statistics need at least one transition")
    if not 1 <= j <= traj.k:
        raise IndexError(f"component {j} out of range 1..{traj.k}")
    col = traj.coeffs[:, j - 1]
    lagged = col[:-1]
    alpha = math.fsum((lagged * col[1:]).tolist())
    beta = math.fsum((lagged * lagged).tolist())
    return SufficientStats(alpha=alpha, beta=beta, T=traj.T)


def classical_estimate(stats: SufficientStats) -> float:
    """Moment estimator alpha / beta."""
    if stats.beta == 0.0:
        raise DegenerateTrajectoryError(
            "component carries no energy (beta = 0); cannot form alpha/beta"
        )
    return stats.alpha / stats.beta


def _quadratic_roots(alpha: float, beta: float, sigma2: float, a: float, b: float):
    """Both real roots (minus, plus) of the penalized quadratic.

    Uses the product form for whichever root would suffer cancellation:
    with s = alpha + beta and q = s + sign(s)*sqrt(disc), the roots are
    q/(2*beta) and 2*c0/q where c0 = alpha + sigma2*(2 - (a + b)).
    """
    shift = 2.0 - (a + b)
    diff = alpha - beta
    disc = diff * diff - 4.0 * beta * sigma2 * shift
    if disc < 0.0:
        guard = DISCRIMINANT_GUARD * (diff + 1.0) ** 2
        if disc >= -guard:
            disc = 0.0  # rounding artifact at a + b = 2
        else:
            raise ComplexRootError(
                f"discriminant {disc} < 0 (a + b = {a + b} < 2): the quadratic "
                f"has no real roots; use cubic_score_solve for this regime"
            )
    root = math.sqrt(disc)
    s = alpha + beta
    c0 = alpha + sigma2 * shift
    if s > 0.0:
        minus = 2.0 * c0 / (s + root)
        plus = (s + root) / (2.0 * beta)
    elif s < 0.0:
        minus = (s - root) / (2.0 * beta)
        plus = 2.0 * c0 / (s - root)
    else:
        minus = -root / (2.0 * beta)
        plus = root / (2.0 * beta)
    return minus, plus


def bayes_estimate(
    stats: SufficientStats, sigma2: float, a: float, b: float, root: str = "minus"
) -> float:
    """Beta-prior estimate of the autocorrelation coefficient.

    Parameters
    ----------
    stats : SufficientStats
        Componentwise sums; beta must be positive.
    sigma2 : float
        Known innovation variance of the component.
    a, b : float
        Beta prior shapes; a > 0 and b >= 1.  (b = 1 is admitted so the
        a = b = 1 flat-prior reduction to the classical estimator is
        expressible.)
    root : {"minus", "plus"}
        The minus root is the estimator with the asymptotic guarantees.
    """
    if stats.beta == 0.0:
        raise DegenerateTrajectoryError(
            "component carries no energy (beta = 0); cannot form the Bayes estimate"
        )
    if sigma2 <= 0.0:
        raise ValueError(f"innovation variance must be positive, got {sigma2}")
    if a <= 0.0:
        raise ValueError(f"prior shape a must be positive, got {a}")
    if b < 1.0:
        raise ValueError(f"prior shape b must be >= 1, got {b}")
    if root not in ("minus", "plus"):
        raise ValueError(f"root must be 'minus' or 'plus', got {root!r}")
    minus, plus = _quadratic_roots(stats.alpha, stats.beta, sigma2, a, b)
    return minus if root == "minus" else plus


def _real_quadratic_roots(c2: float, c1: float, c0: float):
    # real roots of c2 x^2 + c1 x + c0, used only to split the search
    # interval at the cubic's critical points
    if c2 == 0.0:
        return [] if c1 == 0.0 else [-c0 / c1]
    d = c1 * c1 - 4.0 * c2 * c0
    if d < 0.0:
        return []
    q = -0.5 * (c1 + math.copysign(math.sqrt(d), c1))
    roots = [q / c2]
    if q != 0.0:
        roots.append(c0 / q)
    return roots


def cubic_score_solve(
    stats: SufficientStats,
    sigma2: float,
    a: float,
    b: float,
    bounds: tuple[float, float] = (0.0, 1.0),
) -> tuple[float, ...]:
    """All real stationary points of the penalized criterion within bounds.

    Solves the cubic

        (beta/sigma2) r**3 - ((alpha+beta)/sigma2) r**2
            + (alpha/sigma2 + 2 - (a + b)) r = 0

    by bracketed root finding: the interval is split at the cubic's
    critical points, each sign change is resolved with Brent's method, and
    near-zero values at the breakpoints catch boundary and tangent roots.
    Never consults the closed-form quadratic, so it serves as an
    independent oracle for ``bayes_estimate``.  The default bounds cover
    the autocorrelation range [0, 1]; widen them to inspect exterior roots.
    """
    if stats.beta <= 0.0:
        raise DegenerateTrajectoryError("cubic score equation needs beta > 0")
    if sigma2 <= 0.0:
        raise ValueError(f"innovation variance must be positive, got {sigma2}")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise ValueError(f"bounds must satisfy lo < hi, got {bounds}")
    c3 = stats.beta / sigma2
    c2 = -(stats.alpha + stats.beta) / sigma2
    c1 = stats.alpha / sigma2 + 2.0 - (a + b)

    def poly(r):
        return ((c3 * r + c2) * r + c1) * r

    def tol_at(r):
        return 1e-12 * (abs(c3 * r**3) + abs(c2 * r * r) + abs(c1 * r)) + 1e-280

    points = [lo, hi]
    for crit in _real_quadratic_roots(3.0 * c3, 2.0 * c2, c1):
        if lo < crit < hi:
            points.append(crit)
    points.sort()

    roots = [r for r in points if abs(poly(r)) <= tol_at(r)]
    for u, v in zip(points, points[1:]):
        fu, fv = poly(u), poly(v)
        if fu == 0.0 or fv == 0.0:
            continue  # endpoint roots already collected
        if (fu < 0.0) != (fv < 0.0):
            roots.append(brentq(poly, u, v, xtol=1e-15, rtol=4e-15))

    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or abs(r - merged[-1]) > 1e-10 * max(1.0, abs(r)):
            merged.append(float(r))
    return tuple(merged)


@dataclass(frozen=True)
class EstimateSet:
    """Classical and Bayes estimates for components 1..k_T of one trajectory."""

    k_T: int
    rho_hat: np.ndarray
    rho_tilde_minus: np.ndarray
    stats: tuple[SufficientStats, ...]


def estimate_all(
    traj: Trajectory,
    real: ModelRealization,
    k_T: int,
    priors: PriorSpec,
) -> EstimateSet:
    """Estimate the first k_T components of a trajectory both ways.

    The Bayes estimates consume the true innovation variances from the
    realization (they enter the estimator as known constants).  Each
    component is verified against the shrinkage bound

        0 <= rho_hat - rho_tilde_minus <= sqrt(sigma2*(a+b-2)/beta)

    whenever rho_hat <= 1; a violation indicates numerical trouble and
    raises rather than contaminating downstream error summaries.
    """
    if traj.T < 1:
        raise ValueError("estimation needs at least one transition")
    if not 1 <= k_T <= traj.k:
        raise ValueError(f"k_T={k_T} out of range 1..{traj.k}")
    if k_T > real.k:
        raise ValueError(f"realization has {real.k} components, need {k_T}")
    rho_hat = np.empty(k_T)
    rho_minus = np.empty(k_T)
    stats_all = []
    for j in range(1, k_T + 1):
        st = sufficient_stats(traj, j)
        if st.beta == 0.0:
            raise DegenerateTrajectoryError(
                f"component {j} carries no energy (beta = 0) over T={traj.T}"
            )
        a, b = prior_params(priors, j)
        sigma2 = float(real.sigma2[j - 1])
        hat = classical_estimate(st)
        minus = bayes_estimate(st, sigma2, a, b, root="minus")
        if hat <= 1.0 and a + b >= 2.0:
            bound = math.sqrt(sigma2 * (a + b - 2.0) / st.beta)
            delta = hat - minus
            slack = PROXIMITY_SLACK * (1.0 + bound)
            if delta < -slack or delta > bound + slack:
                raise RuntimeError(
                    f"component {j}: shrinkage {delta} escapes [0, {bound}]"
                )
        rho_hat[j - 1] = hat
        rho_minus[j - 1] = minus
        stats_all.append(st)
    return EstimateSet(
        k_T=k_T,
        rho_hat=rho_hat,
        rho_tilde_minus=rho_minus,
        stats=tuple(stats_all),
    )


def plugin_predict(est: EstimateSet, which: str, xT) -> np.ndarray:
    """Apply the estimated diagonal operator to a coefficient vector.

    Components above k_T are zeroed: the predictor lives on the truncated
    span.
    """
    xT = np.asarray(xT, dtype=float)
    if xT.ndim != 1 or xT.size < est.k_T:
        raise ValueError(
            f"coefficient vector of length >= {est.k_T} required, got shape {xT.shape}"
        )
    if which == "classical":
        coeff = est.rho_hat
    elif which == "bayes_minus":
        coeff = est.rho_tilde_minus
    else:
        raise ValueError(f"which must be 'classical' or 'bayes_minus', got {which!r}")
    out = np.zeros_like(xT)
    out[: est.k_T] = coeff * xT[: est.k_T]
    return out
