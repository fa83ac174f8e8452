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

The sums are exact: ``exact_sums`` reduces rows with a pairwise
error-free TwoSum tree (Ogita, Rump and Oishi, "Accurate sum and dot
product", SIAM J. Sci. Comput. 26(6), 2005) and certifies each column's
result as the round-to-nearest value of the exact sum (cf. Rump, Ogita and
Oishi, "Accurate floating-point summation part II", SIAM J. Sci. Comput.
31(2), 2008), so it equals ``math.fsum`` bit for bit; a column the
certificate does not clear is summed by ``math.fsum`` itself.  The
estimators run elementwise over arrays of columns, so one replication and a
block of replications share every operation.

``cubic_score_solve`` independently recovers the same stationary points as
roots of the cubic r * (quadratic above) / sigma2 by bracketed root
finding, providing a closed-form-free cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulator import Trajectory
from .spectral_model import ModelRealization, PriorSpec, prior_params

# Discriminants more negative than this multiple of (alpha - beta + 1)**2
# cannot be rounding artifacts and signal a genuinely complex root pair.
DISCRIMINANT_GUARD = 1e-10

# Slack for the internal shrinkage-bound verification in estimate_all;
# covers independent rounding of the two estimators, nothing more.
PROXIMITY_SLACK = 1e-9

# Largest array, in elements, that exact_sums reduces in one step; longer
# inputs are reduced in row blocks of at most this size.
CHUNK_ELEMENTS = 2**18

# Unit roundoff of binary64, and the smallest subnormal, which absorbs the
# underflow of the certificate's error bound.
_UNIT = 2.0**-53
_TINY = 5e-324

# estimate_all's checks for one component, in the order they run; a fault
# code is the first check the component fails, 0 when it passes them all.
DEGENERATE, BAD_VARIANCE, COMPLEX_ROOTS, ESCAPED = 1, 2, 3, 4


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


def _two_sum(a, b):
    """Knuth's TwoSum: s = fl(a + b) and e with s + e == a + b exactly."""
    s = a + b
    t = s - a  # b's share of s
    e = b - t  # what b lost
    np.subtract(s, t, out=t)  # a's share
    np.subtract(a, t, out=t)  # what a lost
    e += t
    return s, e


def _certified(r, t, mag, terms):
    """Columns whose exact sum provably rounds to r.

    The exact sum is r + t + d, where d is the rounding error of the float
    sum of the TwoSum errors, |d| <= gamma(terms) * mag.  The bound below
    overestimates |t| + |d| with a factor of two to spare; it must stay
    under half the smaller gap next to r (below a power of two the gap is
    half the size).  The bound is at least the smallest subnormal, so a
    zero or subnormal r is never certified and the sign of a zero sum is
    always fsum's; a non-finite r fails the comparison.
    """
    bound = np.abs(t) + (2.0 * (terms + 2)) * mag * _UNIT + _TINY
    gap = np.minimum(r - np.nextafter(r, -np.inf), np.nextafter(r, np.inf) - r)
    return 2.0 * bound < gap


class ColumnSums:
    """Exact column sums of an array fed in blocks of rows.

    Each block is reduced by a pairwise TwoSum tree; the tree tops are
    carried into a running total by TwoSum, and the errors of every TwoSum
    are summed (with their magnitudes) for the final correction.
    """

    def __init__(self, columns: int):
        self.top = np.zeros(columns)
        self.err = np.zeros(columns)
        self.mag = np.zeros(columns)
        self.terms = 0

    def add(self, p) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            while len(p):
                if len(p) % 2:
                    self.top, e = _two_sum(self.top, p[-1])
                    self.err += e
                    self.mag += np.abs(e)
                    self.terms += 1
                    p = p[:-1]
                else:
                    half = len(p) // 2
                    p, e = _two_sum(p[:half], p[half:])
                    self.err += e.sum(axis=0)
                    self.mag += np.abs(e, out=e).sum(axis=0)
                    self.terms += half

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """The sums and a mask of the columns certified to equal fsum."""
        with np.errstate(over="ignore", invalid="ignore"):
            r, t = _two_sum(self.top, self.err)
            return r, _certified(r, t, self.mag, self.terms)


def exact_sums(p) -> np.ndarray:
    """Column sums of an (n, c) array, each equal to math.fsum of its column."""
    p = np.asarray(p, dtype=float)
    sums = ColumnSums(p.shape[1])
    step = max(1, CHUNK_ELEMENTS // max(1, p.shape[1]))
    for lo in range(0, len(p), step):
        sums.add(p[lo : lo + step])
    r, ok = sums.result()
    for i in np.flatnonzero(~ok):
        r[i] = math.fsum(p[:, i].tolist())
    return r


def lag_products(x, out=None) -> np.ndarray:
    """Terms of alpha and beta for the columns of x[0..n]: an (n, 2c) array
    holding x[i-1] * x[i] in its first c columns and x[i-1]**2 in the rest."""
    n, c = x.shape[0] - 1, x.shape[1]
    out = np.empty((n, 2 * c)) if out is None else out
    lagged = x[:-1]
    np.multiply(lagged, x[1:], out=out[:, :c])
    np.multiply(lagged, lagged, out=out[:, c:])
    return out


def lag_sums(x) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) of every column of a (T+1, c) trajectory block."""
    sums = exact_sums(lag_products(x))
    c = x.shape[1]
    return sums[:c], sums[c:]


def sufficient_stats(traj: Trajectory, j: int) -> SufficientStats:
    """Compute (alpha, beta) for component j (1-based) of a trajectory.

    Both are exact sums of the floating-point products (equal to math.fsum),
    so they are the correctly rounded sums even for T ~ 1e5 with mixed
    magnitudes.
    """
    if traj.T < 1:
        raise ValueError("sufficient statistics need at least one transition")
    if not 1 <= j <= traj.k:
        raise IndexError(f"component {j} out of range 1..{traj.k}")
    alpha, beta = lag_sums(traj.coeffs[:, j - 1 : j])
    return SufficientStats(alpha=float(alpha[0]), beta=float(beta[0]), T=traj.T)


def classical_estimate(stats: SufficientStats) -> float:
    """Moment estimator alpha / beta."""
    if stats.beta == 0.0:
        raise DegenerateTrajectoryError(
            "component carries no energy (beta = 0); cannot form alpha/beta"
        )
    return stats.alpha / stats.beta


def _quadratic_roots(alpha, beta, sigma2, a, b):
    """Both roots (minus, plus) of the penalized quadratic, elementwise, and
    its discriminant, which stays negative only where the roots are complex.

    Uses the product form for whichever root would suffer cancellation:
    with s = alpha + beta and q = s + sign(s)*sqrt(disc), the roots are
    q/(2*beta) and 2*c0/q where c0 = alpha + sigma2*(2 - (a + b)).
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        shift = 2.0 - (a + b)
        diff = alpha - beta
        disc = diff * diff - 4.0 * beta * sigma2 * shift
        # a slightly negative discriminant at a + b = 2 is a rounding artifact
        artifact = (disc < 0.0) & (disc >= -(DISCRIMINANT_GUARD * (diff + 1.0) ** 2))
        disc = np.where(artifact, 0.0, disc)
        root = np.sqrt(np.maximum(disc, 0.0))
        s = alpha + beta
        c0 = alpha + sigma2 * shift
        pos, neg = s > 0.0, s < 0.0
        q = np.where(neg, s - root, s + root)
        quot = q / (2.0 * beta)
        prod = 2.0 * c0 / q
        minus = np.where(pos, prod, np.where(neg, quot, -quot))
        plus = np.where(pos, quot, np.where(neg, prod, quot))
    return minus, plus, disc


def _complex_root_error(disc, a, b) -> ComplexRootError:
    return ComplexRootError(
        f"discriminant {disc} < 0 (a + b = {a + b} < 2): the quadratic "
        f"has no real roots; use cubic_score_solve for this regime"
    )


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
    minus, plus, disc = _quadratic_roots(stats.alpha, stats.beta, sigma2, a, b)
    if disc < 0.0:
        raise _complex_root_error(float(disc), a, b)
    return float(minus if root == "minus" else plus)


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
    from scipy.optimize import brentq  # the run path never loads scipy

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


def prior_columns(priors: PriorSpec, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Beta prior shapes (a_j, b_j) of components 1..k as two arrays."""
    a, b = zip(*(prior_params(priors, j) for j in range(1, k + 1)))
    return np.array(a), np.array(b)


def estimate_columns(alpha, beta, sigma2, a, b):
    """Classical and minus-root estimates of columns with sums (alpha, beta).

    Returns (rho_hat, rho_tilde_minus, fault), elementwise; fault is the
    code of the first of estimate_all's checks a column fails (DEGENERATE,
    BAD_VARIANCE, COMPLEX_ROOTS, ESCAPED), 0 where it passes, and the
    estimates of a faulty column are meaningless.  The shrinkage check is

        0 <= rho_hat - rho_tilde_minus <= sqrt(sigma2*(a+b-2)/beta)

    whenever rho_hat <= 1 and a + b >= 2.
    """
    minus, _, disc = _quadratic_roots(alpha, beta, sigma2, a, b)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        hat = alpha / beta
        bound = np.sqrt(sigma2 * (a + b - 2.0) / beta)
        delta = hat - minus
        slack = PROXIMITY_SLACK * (1.0 + bound)
        escaped = (hat <= 1.0) & (a + b >= 2.0) & ((delta < -slack) | (delta > bound + slack))
    fault = np.select(
        [beta == 0.0, sigma2 <= 0.0, disc < 0.0, escaped],
        [DEGENERATE, BAD_VARIANCE, COMPLEX_ROOTS, ESCAPED],
        0,
    )
    return hat, minus, fault


def first_fault(fault, T: int, alpha, beta, sigma2, a, b) -> Exception | None:
    """The exception estimate_all raises for the first faulty component of
    one trajectory's columns, or None when every component passes."""
    bad = np.flatnonzero(fault)
    if not bad.size:
        return None
    i = bad[0]
    code, j = fault[i], i + 1
    alpha, beta, sigma2, a, b = (float(v[i]) for v in (alpha, beta, sigma2, a, b))
    if code == DEGENERATE:
        return DegenerateTrajectoryError(
            f"component {j} carries no energy (beta = 0) over T={T}"
        )
    if code == BAD_VARIANCE:
        return ValueError(f"innovation variance must be positive, got {sigma2}")
    minus, _, disc = _quadratic_roots(alpha, beta, sigma2, a, b)
    if code == COMPLEX_ROOTS:
        return _complex_root_error(float(disc), a, b)
    bound = math.sqrt(sigma2 * (a + b - 2.0) / beta)
    delta = alpha / beta - float(minus)
    return RuntimeError(f"component {j}: shrinkage {delta} escapes [0, {bound}]")


def estimate_all(
    traj: Trajectory,
    real: ModelRealization,
    k_T: int,
    priors: PriorSpec,
) -> EstimateSet:
    """Estimate the first k_T components of a trajectory both ways.

    The Bayes estimates consume the true innovation variances from the
    realization (they enter the estimator as known constants).  Each
    component is verified against the shrinkage bound (see
    ``estimate_columns``); a violation indicates numerical trouble and
    raises rather than contaminating downstream error summaries, as do a
    component with beta = 0 (DegenerateTrajectoryError) and complex roots.
    """
    if traj.T < 1:
        raise ValueError("estimation needs at least one transition")
    if not 1 <= k_T <= traj.k:
        raise ValueError(f"k_T={k_T} out of range 1..{traj.k}")
    if k_T > real.k:
        raise ValueError(f"realization has {real.k} components, need {k_T}")
    alpha, beta = lag_sums(traj.coeffs[:, :k_T])
    sigma2 = real.sigma2[:k_T]
    a, b = prior_columns(priors, k_T)
    rho_hat, rho_minus, fault = estimate_columns(alpha, beta, sigma2, a, b)
    error = first_fault(fault, traj.T, alpha, beta, sigma2, a, b)
    if error is not None:
        raise error
    return EstimateSet(
        k_T=k_T,
        rho_hat=rho_hat,
        rho_tilde_minus=rho_minus,
        stats=tuple(
            SufficientStats(alpha=al, beta=be, T=traj.T)
            for al, be in zip(alpha.tolist(), beta.tolist())
        ),
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
