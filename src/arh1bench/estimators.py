"""Componentwise estimators of the autocorrelation coefficients.

For component j of a trajectory x[0..T] the sufficient statistics are

    alpha = sum_{i=1..T} x[i-1] * x[i],      beta = sum_{i=1..T} x[i-1]**2.

The classical moment estimator is alpha / beta.  The Beta(a, b)-prior
estimator is a root of the penalized quadratic

    beta * r**2 - (alpha + beta) * r + alpha + sigma2 * (2 - (a + b)) = 0,

whose discriminant (alpha - beta)**2 - 4*beta*sigma2*(2 - (a + b)) is
nonnegative whenever a + b >= 2, as for the prior's shapes (2**k, 1.01),
which have a + b >= 3.01.  Only the smaller ("minus") root is solved: it
is the estimator with the asymptotic guarantees.  It is evaluated with the
product-form quadratic formula so that the a + b = 2 reduction to
min(alpha/beta, 1) is exact and no cancellation occurs when alpha is small
relative to beta.

The shrink s = rho_hat - rho_tilde_minus solves

    s * (1 - rho_hat + s) = c,      c = sigma2 * (a + b - 2) / beta,

since the minus root r satisfies (r - rho_hat) * (r - 1) = c exactly.  At
beta = T * C_j and sigma2 = C_j * (1 - rho_j**2), c is about
(a_j + b_j - 2) * (1 - rho_j**2) / T, and the crossover
T*_j = 4 * (a_j + b_j - 2) * (1 + rho_j) / (1 - rho_j), where 4c equals
(1 - rho_j)**2, splits two regimes: s is near c / (1 - rho_j) for T well
past T*_j, so T * s**2 decays like 1/T, and near sqrt(c) for T well short
of it, where T * s**2 stays near (a_j + b_j - 2) * (1 - rho_j**2).

Each sum is the left fold of its lag products in time order,
((p_1 + p_2) + p_3) + ..., from 0.0: the same sequence of IEEE additions
wherever it runs, so it does not depend on how rows are chunked or columns
grouped.  Its error is at most (T - 1) * 2**-53 * sum |p_i| (Rump, "Error
estimation of floating-point summation and dot product", BIT 52, 2012), far
below the Monte Carlo error of any EFMSE built on it.  ``fold_rows`` is
that fold, down to one column wide; ``fold_lag_terms`` forms the lag terms
and folds alpha's, then beta's, onto running sums, for a whole block
(``lag_sums``) or a row chunk (``harness.fold_runs``, the time loop of the
study and of the Bartlett and normality diagnostics).  The estimators run
elementwise over arrays of columns, so one replication and a block of
replications share every operation.
``minus_root`` and ``column_faults`` step through a few reused buffers, not
a new array per operation, because the harness judges each T's stacked
records with them where a run's resident memory peaks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulator import Trajectory
from .spectral_model import ModelRealization, PriorSpec, prior_shapes, truncate_realization

# Slack for the shrinkage-bound check of column_faults; covers
# independent rounding of the two estimators, nothing more.
PROXIMITY_SLACK = 1e-9

# column_faults' checks for one component: a fault code is the first check
# the component fails, 0 when it passes them all.  NON_FINITE (sums not
# finite) runs first and outranks the others in ``deciding_component``.
DEGENERATE, ESCAPED, NON_FINITE = 1, 2, 3
FAULT_NAMES = {DEGENERATE: "degenerate", ESCAPED: "escaped", NON_FINITE: "non-finite"}


class DegenerateTrajectoryError(RuntimeError):
    """A component carried no energy (beta = 0), so no estimate exists."""


class ComplexRootError(ValueError):
    """No real roots, which needs a + b < 2; never raised: the prior has a + b >= 3.01."""


def fold_rows(p, out=None) -> np.ndarray:
    """The left fold of the rows of ``p``, ((p[0] + p[1]) + p[2]) + ...,
    into ``out`` (a new array by default); ``p`` itself is not written.

    ``p`` must be C-contiguous.  numpy reduces an outer axis row after row,
    which is the fold, where a row holds two or more values, but sums a
    single column pairwise, so a lone column is folded by
    ``np.add.accumulate``, which runs in order.  A non-finite sum is the
    caller's to find, so overflow and inf - inf raise no warning here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if p.size == len(p):
            p = np.add.accumulate(p, axis=0)[-1:]
        return np.add.reduce(p, axis=0, out=out)


def fold_lag_terms(x, sums, p) -> None:
    """Fold x[i-1] * x[i] onto ``sums[0]``, then x[i-1]**2 onto ``sums[1]``,
    in place, each through ``p``: C-contiguous with x's shape, its row 0
    carries the running sum in ahead of the terms.  ``x`` is not written."""
    lagged = x[:-1]
    for total, other in zip(sums, (x[1:], lagged)):
        p[0] = total
        np.multiply(lagged, other, out=p[1:])
        fold_rows(p, out=total)


def lag_sums(x) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) of every column of a (T+1, c) trajectory block, folded
    from 0.0 by ``fold_lag_terms``."""
    sums = np.zeros((2, x.shape[1]))
    fold_lag_terms(x, sums, np.empty(x.shape))
    return sums[0], sums[1]


def sufficient_stats(traj: Trajectory, j: int) -> tuple[float, float]:
    """(alpha, beta) of component j (1-based) of a trajectory, as floats."""
    if not 1 <= j <= traj.k:
        raise IndexError(f"component {j} out of range 1..{traj.k}")
    if traj.T < 1:
        raise ValueError(f"sufficient statistics need T >= 1, got T={traj.T}")
    alpha, beta = lag_sums(traj.coeffs[:, j - 1 : j])
    return float(alpha[0]), float(beta[0])


def minus_root(alpha, beta, sigma2, a, b) -> np.ndarray:
    """The minus root of the penalized quadratic, elementwise, as float64.

    With s = alpha + beta and c0 = alpha + sigma2*(2 - (a + b)), it is
    2*c0/(s + sqrt(disc)) where s > 0, else (s - sqrt(disc))/(2*beta): each
    adds sqrt(disc) to s's magnitude, so neither cancels.  With
    a + b >= 2 and sigma2 > 0, disc is a square plus a term >= 0, never negative.
    The inputs broadcast; Python floats give a 0-d array.
    """
    shape = np.broadcast_shapes(*map(np.shape, (alpha, beta, sigma2, a, b)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        shift = 2.0 - (a + b)
        root = np.subtract(alpha, beta, out=np.empty(shape))
        np.multiply(root, root, out=root)
        t = np.multiply(4.0, beta, out=np.empty(shape))
        np.multiply(t, sigma2, out=t)
        np.multiply(t, shift, out=t)
        np.sqrt(np.subtract(root, t, out=root), out=root)
        s = np.add(alpha, beta, out=t)
        plus = s > 0.0
        # the s > 0 branch into out, then the other into s, from s recomputed
        np.add(s, root, out=s)
        out = np.multiply(sigma2, shift, out=np.empty(shape))
        np.add(alpha, out, out=out)
        np.multiply(2.0, out, out=out)
        np.divide(out, s, out=out)
        np.subtract(np.add(alpha, beta, out=s), root, out=s)
        np.divide(s, np.multiply(2.0, beta, out=root), out=s)
        np.copyto(s, out, where=plus)
        return s


@dataclass(frozen=True)
class EstimateSet:
    """Classical and Bayes estimates for components 1..k_T of one trajectory."""

    rho_hat: np.ndarray
    rho_tilde_minus: np.ndarray


def column_faults(alpha, beta, sigma2, a, b):
    """The int8 fault code of each column with sums (alpha, beta): the first
    of estimate_all's checks it fails (NON_FINITE, DEGENERATE, ESCAPED), 0
    where it passes them all.

    The inputs broadcast, so a run's (m, k) sums and sigma2 (m
    replications, k components) take its (k,) prior shapes as they are.
    They must have sigma2 > 0 and a + b >= 2, as the prior's shapes do
    (a + b >= 3.01), and the shrinkage check is

        0 <= alpha/beta - minus_root <= sqrt(sigma2*(a+b-2)/beta)

    whenever alpha/beta <= 1.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        delta = minus_root(alpha, beta, sigma2, a, b)
        hat = np.divide(alpha, beta, out=np.empty_like(delta))
        np.subtract(hat, delta, out=delta)
        escaped = hat <= 1.0
        bound = np.multiply(sigma2, a + b - 2.0, out=np.empty_like(delta))
        np.sqrt(np.divide(bound, beta, out=bound), out=bound)
        slack = np.multiply(PROXIMITY_SLACK, np.add(1.0, bound, out=hat), out=hat)
        np.add(bound, slack, out=bound)
        escaped &= (delta < np.negative(slack, out=slack)) | (delta > bound)
    finite = np.isfinite(alpha) & np.isfinite(beta)
    return np.select([~finite, beta == 0.0, escaped],
                     [NON_FINITE, DEGENERATE, ESCAPED], np.int8(0))


def deciding_component(fault):
    """Index along the last axis of the component that decides a replication's
    fault: its first with sums not finite, else its first faulty one, else 0."""
    return np.argmax(2 * (fault == NON_FINITE) + (fault != 0), axis=-1)


def first_fault(fault, T: int, alpha, beta, sigma2, a, b) -> Exception | None:
    """The exception estimate_all raises for one trajectory's columns, for
    the ``deciding_component``; None when all pass."""
    i = deciding_component(fault)
    if not fault[i]:
        return None
    if fault[i] == NON_FINITE:
        return RuntimeError(f"component {i + 1}: sums alpha={alpha[i]}, "
                            f"beta={beta[i]} are not finite over T={T}")
    if fault[i] == DEGENERATE:
        return DegenerateTrajectoryError(
            f"component {i + 1} carries no energy (beta = 0) over T={T}"
        )
    alpha, beta, sigma2, a, b = (float(v[i]) for v in (alpha, beta, sigma2, a, b))
    minus = minus_root(alpha, beta, sigma2, a, b)
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
    ``column_faults``); a violation indicates numerical trouble and
    raises rather than contaminating downstream error summaries, as do
    sums that are not finite (RuntimeError) and a component with beta = 0
    (DegenerateTrajectoryError).  ``priors`` is unused: the prior is the
    one rule of ``prior_shapes``, and the argument stays while perfbench
    passes it (ROADMAP item 4).
    """
    if traj.T < 1:
        raise ValueError("estimation needs at least one transition")
    if not 1 <= k_T <= traj.k:
        raise ValueError(f"k_T={k_T} out of range 1..{traj.k}")
    sigma2 = truncate_realization(real, k_T).sigma2
    if not np.all(sigma2 > 0.0):
        raise ValueError(f"innovation variances must be positive, got {sigma2}")
    alpha, beta = lag_sums(traj.coeffs[:, :k_T])
    cols = (alpha, beta, sigma2, *prior_shapes(k_T))
    error = first_fault(column_faults(*cols), traj.T, *cols)
    if error is not None:
        raise error
    return EstimateSet(rho_hat=alpha / beta, rho_tilde_minus=minus_root(*cols))

