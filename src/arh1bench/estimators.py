"""Componentwise estimators of the autocorrelation coefficients.

For component j of a trajectory x[0..T] the sufficient statistics are

    alpha = sum_{i=1..T} x[i-1] * x[i],      beta = sum_{i=1..T} x[i-1]**2.

The classical moment estimator is alpha / beta.  The Beta(a, b)-prior
estimator is a root of the penalized quadratic

    beta * r**2 - (alpha + beta) * r + alpha + sigma2 * (2 - (a + b)) = 0,

whose discriminant (alpha - beta)**2 - 4*beta*sigma2*(2 - (a + b)) is
nonnegative whenever a + b >= 2, as for the prior's shapes (2**k, 1.01),
which have a + b >= 3.01.  The smaller ("minus") root is the estimator
with the asymptotic guarantees.  Roots are evaluated with the product-form
quadratic formula so that the a + b = 2 reduction to min(alpha/beta, 1) is
exact and no cancellation occurs when alpha is small relative to beta.

The sums are exact: ``exact_sums`` reduces rows with a pairwise
error-free TwoSum tree (Ogita, Rump and Oishi, "Accurate sum and dot
product", SIAM J. Sci. Comput. 26(6), 2005) and certifies each column's
result as the round-to-nearest value of the exact sum (cf. Rump, Ogita and
Oishi, "Accurate floating-point summation part II", SIAM J. Sci. Comput.
31(2), 2008), so it equals ``math.fsum`` bit for bit; a column the
certificate does not clear is summed by ``math.fsum`` itself.  The
estimators run elementwise over arrays of columns, so one replication and a
block of replications share every operation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulator import Trajectory
from .spectral_model import ModelRealization, PriorSpec, prior_shapes

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
# NON_FINITE marks a replication whose sums are not finite.
DEGENERATE, ESCAPED, NON_FINITE = 1, 2, 3
FAULT_NAMES = {DEGENERATE: "degenerate", ESCAPED: "escaped", NON_FINITE: "non-finite"}


class DegenerateTrajectoryError(RuntimeError):
    """A component carried no energy (beta = 0), so no estimate exists."""


class ComplexRootError(ValueError):
    """No real roots, which needs a + b < 2; never raised: the prior has a + b >= 3.01."""


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


def _two_sum(a, b, s=None, t=None, e=None):
    """Knuth's TwoSum: s = fl(a + b) and e with s + e == a + b exactly.

    s, t (a temporary) and e are written into the arrays given, or new
    ones; e may be b itself, but neither s nor t may overlap a or b.
    """
    s = np.add(a, b, out=s)
    t = np.subtract(s, a, out=t)  # b's share of s
    e = np.subtract(b, t, out=e)  # what b lost
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


def _view(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The front of a flat scratch buffer as an array of that shape; a buffer
    too small for it raises ValueError rather than being silently regrown."""
    return buf[: math.prod(shape)].reshape(shape)


class ColumnSums:
    """Exact column sums of an array fed in blocks of rows.

    Each block is reduced by a pairwise TwoSum tree; the tree tops are
    carried into a running total by TwoSum, and the errors of every TwoSum
    are summed (with their magnitudes) for the final correction.  The
    columns may span several axes (``shape``), and a block may cover a
    leading part of each, whose sums alone it advances; ``terms`` counts
    the terms of the longest column, a bound for every other.  The tree
    runs in ``tree``, the caller's flat float scratch, which must hold
    ``tree_shape`` of every block; it never writes into the block it is fed.
    """

    def __init__(self, shape, tree: np.ndarray):
        self.top = np.zeros(shape)
        self.err = np.zeros(shape)
        self.mag = np.zeros(shape)
        self.terms = 0
        self.tree = tree

    @staticmethod
    def tree_shape(rows: int, *columns: int) -> tuple[int, ...]:
        """The "tree" scratch ``add`` takes for a block of that shape."""
        return 3, rows // 2, *columns

    def add(self, p) -> None:
        cols = tuple(slice(0, n) for n in p.shape[1:])
        top, err, mag = self.top[cols], self.err[cols], self.mag[cols]
        tree = _view(self.tree, self.tree_shape(*p.shape))
        level = 0
        with np.errstate(over="ignore", invalid="ignore"):
            while len(p):
                if len(p) % 2:
                    top[...], e = _two_sum(top, p[-1])
                    err += e
                    mag += np.abs(e)
                    self.terms += 1
                    p = p[:-1]
                    continue
                half = len(p) // 2
                # s alternates between buffers 0 and 1, so it never lands on
                # p, and t takes buffer 2; e goes to buffer 1 at the first
                # level, then over the b half of p, but never into the block
                s, t = tree[level % 2, :half], tree[2, :half]
                e = tree[1, :half] if level == 0 else p[half:]
                _two_sum(p[:half], p[half:], s, t, e)
                err += e.sum(axis=0)
                mag += np.abs(e, out=e).sum(axis=0)
                self.terms += half
                p, level = s, level + 1

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """The sums and a mask of the columns certified to equal fsum."""
        with np.errstate(over="ignore", invalid="ignore"):
            r, t = _two_sum(self.top, self.err)
            return r, _certified(r, t, self.mag, self.terms)


def exact_sums(p) -> np.ndarray:
    """Column sums of an (n, c) array, each equal to math.fsum of its column."""
    p = np.asarray(p, dtype=float)
    n, c = p.shape
    step = max(1, min(n, CHUNK_ELEMENTS // max(1, c)))
    sums = ColumnSums(c, np.empty(math.prod(ColumnSums.tree_shape(step, c))))
    for lo in range(0, n, step):
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
    if not 1 <= j <= traj.k:
        raise IndexError(f"component {j} out of range 1..{traj.k}")
    alpha, beta = lag_sums(traj.coeffs[:, j - 1 : j])
    return SufficientStats(alpha=float(alpha[0]), beta=float(beta[0]), T=traj.T)


def _quadratic_roots(alpha, beta, sigma2, a, b):
    """Both roots (minus, plus) of the penalized quadratic, elementwise.

    Uses the product form for whichever root would suffer cancellation:
    with s = alpha + beta and q = s + sign(s)*sqrt(disc), the roots are
    q/(2*beta) and 2*c0/q where c0 = alpha + sigma2*(2 - (a + b)).  With
    a + b >= 2 and sigma2 > 0, disc is a square plus a term >= 0, never negative.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        shift = 2.0 - (a + b)
        diff = alpha - beta
        disc = diff * diff - 4.0 * beta * sigma2 * shift
        root = np.sqrt(disc)
        s = alpha + beta
        c0 = alpha + sigma2 * shift
        pos, neg = s > 0.0, s < 0.0
        q = np.where(neg, s - root, s + root)
        quot = q / (2.0 * beta)
        prod = 2.0 * c0 / q
        minus = np.where(pos, prod, np.where(neg, quot, -quot))
        plus = np.where(pos, quot, np.where(neg, prod, quot))
    return minus, plus


@dataclass(frozen=True)
class EstimateSet:
    """Classical and Bayes estimates for components 1..k_T of one trajectory,
    with the sufficient statistics (alpha, beta) of those components."""

    k_T: int
    rho_hat: np.ndarray
    rho_tilde_minus: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray


def estimate_columns(alpha, beta, sigma2, a, b):
    """Classical and minus-root estimates of columns with sums (alpha, beta).

    Returns (rho_hat, rho_tilde_minus, fault), elementwise; fault is the
    code of the first of estimate_all's checks a column fails (DEGENERATE,
    ESCAPED), 0 where it passes, and the estimates of a faulty column are
    meaningless.  The inputs must have sigma2 > 0 and a + b >= 2, as the
    prior's shapes do (a + b >= 3.01), and the shrinkage check is

        0 <= rho_hat - rho_tilde_minus <= sqrt(sigma2*(a+b-2)/beta)

    whenever rho_hat <= 1.
    """
    minus, _ = _quadratic_roots(alpha, beta, sigma2, a, b)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        hat = alpha / beta
        bound = np.sqrt(sigma2 * (a + b - 2.0) / beta)
        delta = hat - minus
        slack = PROXIMITY_SLACK * (1.0 + bound)
        escaped = (hat <= 1.0) & ((delta < -slack) | (delta > bound + slack))
    fault = np.select([beta == 0.0, escaped], [DEGENERATE, ESCAPED], 0)
    return hat, minus, fault


def first_fault(fault, T: int, alpha, beta, sigma2, a, b) -> Exception | None:
    """The exception estimate_all raises for the first faulty component of
    one trajectory's columns, or None when every component passes."""
    bad = np.flatnonzero(fault)
    if not bad.size:
        return None
    i = bad[0]
    if fault[i] == DEGENERATE:
        return DegenerateTrajectoryError(
            f"component {i + 1} carries no energy (beta = 0) over T={T}"
        )
    alpha, beta, sigma2, a, b = (float(v[i]) for v in (alpha, beta, sigma2, a, b))
    minus, _ = _quadratic_roots(alpha, beta, sigma2, a, b)
    bound = math.sqrt(sigma2 * (a + b - 2.0) / beta)
    delta = alpha / beta - float(minus)
    return RuntimeError(f"component {i + 1}: shrinkage {delta} escapes [0, {bound}]")


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
    raises rather than contaminating downstream error summaries, as does a
    component with beta = 0 (DegenerateTrajectoryError).
    """
    if traj.T < 1:
        raise ValueError("estimation needs at least one transition")
    if not 1 <= k_T <= traj.k:
        raise ValueError(f"k_T={k_T} out of range 1..{traj.k}")
    if k_T > real.k:
        raise ValueError(f"realization has {real.k} components, need {k_T}")
    sigma2 = real.sigma2[:k_T]
    if not np.all(sigma2 > 0.0):
        raise ValueError(f"innovation variances must be positive, got {sigma2}")
    alpha, beta = lag_sums(traj.coeffs[:, :k_T])
    a, b = prior_shapes(priors, k_T)
    rho_hat, rho_minus, fault = estimate_columns(alpha, beta, sigma2, a, b)
    error = first_fault(fault, traj.T, alpha, beta, sigma2, a, b)
    if error is not None:
        raise error
    return EstimateSet(
        k_T=k_T, rho_hat=rho_hat, rho_tilde_minus=rho_minus, alpha=alpha, beta=beta
    )

