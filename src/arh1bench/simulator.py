"""Trajectory generation for diagonal ARH(1) processes in coefficient form.

Each component j follows an exact scalar AR(1) recursion

    X[0, j] ~ Normal(0, C_j)                      (stationary start)
    X[n, j] = rho_j * X[n-1, j] + eps[n, j],      eps[n, j] ~ Normal(0, sigma2_j)

with innovations independent across components and time.  Because
sigma2_j = C_j * (1 - rho_j**2), every row of the trajectory has the
stationary coefficient law, so no burn-in is needed.

Draw-order contract: ``simulate`` consumes exactly one (T+1) x k block of
standard normals from its stream; row 0 seeds the initial states and rows
1..T the innovations.  The generator fills a block row by row, so drawing
the same rows in consecutive chunks (as the experiment harness does to
bound its memory) consumes the identical stream.  This ordering is part of
the reproducibility contract and must not change between releases.

The recursion itself is ``ar1_steps``, one numpy time loop over all
columns; ``simulate`` runs it on one replication's block of normals, and
the harness runs it over the columns of many replications at once, with
the same scaling, so both produce the same bits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral_model import ModelRealization

@dataclass(frozen=True)
class Trajectory:
    """Simulated coefficient matrix, rows = time 0..T, columns = components.

    ``innovations`` (rows 1..T when recorded) satisfy the reconstruction
    identity coeffs[n] = rho * coeffs[n-1] + innovations[n-1] exactly as
    computed, which pins the simulation to its defining recursion.
    """

    coeffs: np.ndarray
    innovations: np.ndarray | None = None

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[0] < 1 or coeffs.shape[1] < 1:
            raise ValueError(f"coeffs must be a (T+1) x k matrix, got {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("trajectory contains non-finite coefficients")
        object.__setattr__(self, "coeffs", coeffs)
        if self.innovations is not None:
            innov = np.asarray(self.innovations, dtype=float)
            if innov.shape != (coeffs.shape[0] - 1, coeffs.shape[1]):
                raise ValueError(
                    f"innovations shape {innov.shape} does not match "
                    f"trajectory shape {coeffs.shape}"
                )
            if not np.all(np.isfinite(innov)):
                raise ValueError("trajectory contains non-finite innovations")
            object.__setattr__(self, "innovations", innov)

    @property
    def T(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def k(self) -> int:
        return self.coeffs.shape[1]


def ar1_steps(x: np.ndarray, rho) -> None:
    """Run the recursion x[t] = x[t] + rho * x[t-1] down the rows of x, in
    place: on entry row 0 holds the state before the first step and rows
    1.. the innovations; on exit the rows hold the states.  ``rho`` is a
    scalar or one coefficient per column."""
    rows = iter(x)
    prev = next(rows)
    step = np.empty_like(prev)
    multiply, add = np.multiply, np.add
    for row in rows:
        multiply(rho, prev, step)
        add(row, step, row)
        prev = row


def simulate(
    real: ModelRealization,
    T: int,
    rng: np.random.Generator,
    record_innovations: bool = False,
) -> Trajectory:
    """Simulate T transitions of the coefficient process.

    Parameters
    ----------
    real : ModelRealization
        Per-component (C, rho, sigma2) triples; all real.k components are
        simulated.
    T : int
        Number of transitions; the result has T+1 rows.
    rng : numpy.random.Generator
        Source of Gaussian variates (numpy's ziggurat standard normal).
    record_innovations : bool
        Store the T x k innovation matrix on the trajectory; needed only by
        the positivity diagnostic.
    """
    if T < 0:
        raise ValueError(f"transition count T must be >= 0, got {T}")
    coeffs = rng.standard_normal((T + 1, real.k))
    coeffs[0] *= np.sqrt(real.C)
    coeffs[1:] *= np.sqrt(real.sigma2)
    eps = coeffs[1:].copy() if record_innovations else None
    ar1_steps(coeffs, real.rho)
    return Trajectory(coeffs=coeffs, innovations=eps)


def positivity_diagnostic(traj: Trajectory) -> np.ndarray:
    """Per-component minima of the running innovation-state correlations.

    Component j satisfies the positivity condition when every partial sum
    sum_{i<=T'} eps_j(i) * X_{i-1,j}, T' = 2..T, is nonnegative, that is
    when its minimum is.
    """
    if traj.innovations is None:
        raise ValueError("positivity diagnostic requires recorded innovations")
    if traj.T < 2:
        raise ValueError(f"positivity diagnostic requires T >= 2, got T={traj.T}")
    partial = np.cumsum(traj.innovations * traj.coeffs[:-1], axis=0)
    return partial[1:].min(axis=0)  # partial sums from T' = 2 on
