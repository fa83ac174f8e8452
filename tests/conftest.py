"""Shared test oracles and helpers.

The oracles deliberately avoid the library's code paths (plain Python
loops, no fsum, no closed-form quadratic in the cubic solver) so agreement
between the two routes is meaningful.  ``bayes_estimate`` is the opposite:
a scalar front end to the package's own estimator and checks.
``reference_minus_root`` and ``reference_column_faults`` are the estimators
as one new array per operation, the form the package's buffered versions
must match bit for bit.  scipy is a test-only dependency; the package never
imports it.
"""
import math

import numpy as np
from scipy.optimize import brentq

from arh1bench.estimators import (
    DEGENERATE,
    ESCAPED,
    NON_FINITE,
    PROXIMITY_SLACK,
    DegenerateTrajectoryError,
    column_faults,
    first_fault,
    minus_root,
)


def reference_ar1(rho: float, C: float, sigma2: float, T: int, rng) -> np.ndarray:
    """Plain-loop scalar AR(1) path consuming variates exactly like
    ``simulate`` does for a single-component model: a (T+1, 1) standard
    normal block, row 0 scaled by sqrt(C), rows 1..T by sqrt(sigma2)."""
    z = rng.standard_normal((T + 1, 1))[:, 0]
    x = np.empty(T + 1)
    x[0] = math.sqrt(C) * z[0]
    s = math.sqrt(sigma2)
    for n in range(1, T + 1):
        x[n] = rho * x[n - 1] + s * z[n]
    return x


def reference_positivity(real, T: int, rng) -> np.ndarray:
    """Plain-loop positivity verdicts, one per component, from the drawn
    innovations: draws the (T+1) x k standard normal block ``simulate``
    draws, steps each component's recursion while keeping its innovations
    eps(n) = sqrt(sigma2) * z(n), and tells whether every partial sum
    sum_{n<=T'} eps(n) * X(n-1), T' = 2..T, is nonnegative."""
    z = rng.standard_normal((T + 1, real.k))
    verdicts = []
    for j in range(real.k):
        rho, s = float(real.rho[j]), math.sqrt(float(real.sigma2[j]))
        x = math.sqrt(float(real.C[j])) * float(z[0, j])
        partial, holds = 0.0, True
        for n in range(1, T + 1):
            eps = s * float(z[n, j])
            partial += eps * x
            if n >= 2 and partial < 0.0:
                holds = False
            x = rho * x + eps
        verdicts.append(holds)
    return np.array(verdicts)


def naive_sums(col) -> tuple[float, float]:
    """Double-loop sufficient statistics, no compensation, no vectorization."""
    alpha = 0.0
    beta = 0.0
    for i in range(1, len(col)):
        alpha += col[i - 1] * col[i]
        beta += col[i - 1] * col[i - 1]
    return alpha, beta


def bayes_estimate(
    alpha: float, beta: float, sigma2: float, a: float, b: float, root: str = "minus"
) -> float:
    """The minus (or plus) root of the penalized quadratic for one component
    with sums ``alpha`` and ``beta``, raising the error ``estimate_all``
    would raise (its message gives T as None: the sums do not carry it).
    The package solves only the minus root; the plus root is the larger of
    ``_real_quadratic_roots``."""
    cols = [np.array([v], dtype=float) for v in (alpha, beta, sigma2, a, b)]
    error = first_fault(column_faults(*cols), None, *cols)
    if error is not None:
        raise error
    if root == "minus":
        return float(minus_root(*cols)[0])
    c0 = alpha + sigma2 * (2.0 - (a + b))
    return max(_real_quadratic_roots(beta, -(alpha + beta), c0))


def reference_minus_root(alpha, beta, sigma2, a, b):
    """``minus_root`` with a new array for each operation and both branches
    evaluated everywhere."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        shift = 2.0 - (a + b)
        diff = alpha - beta
        root = np.sqrt(diff * diff - 4.0 * beta * sigma2 * shift)
        s = alpha + beta
        return np.where(s > 0.0, 2.0 * (alpha + sigma2 * shift) / (s + root),
                        (s - root) / (2.0 * beta))


def reference_column_faults(alpha, beta, sigma2, a, b):
    """``column_faults`` with a new array for each operation."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        hat = alpha / beta
        bound = np.sqrt(sigma2 * (a + b - 2.0) / beta)
        delta = hat - reference_minus_root(alpha, beta, sigma2, a, b)
        slack = PROXIMITY_SLACK * (1.0 + bound)
        escaped = (hat <= 1.0) & ((delta < -slack) | (delta > bound + slack))
    finite = np.isfinite(alpha) & np.isfinite(beta)
    return np.select([~finite, beta == 0.0, escaped],
                     [NON_FINITE, DEGENERATE, ESCAPED], np.int8(0))


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
    alpha: float,
    beta: float,
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
    if beta <= 0.0:
        raise DegenerateTrajectoryError("cubic score equation needs beta > 0")
    if sigma2 <= 0.0:
        raise ValueError(f"innovation variance must be positive, got {sigma2}")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise ValueError(f"bounds must satisfy lo < hi, got {bounds}")
    c3 = beta / sigma2
    c2 = -(alpha + beta) / sigma2
    c1 = alpha / sigma2 + 2.0 - (a + b)

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
