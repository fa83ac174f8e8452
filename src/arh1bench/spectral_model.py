"""Spectral model families for diagonal ARH(1) processes.

A model is described by the eigenvalue sequence ``C_k`` of the covariance
operator, a componentwise Beta prior on the autocorrelation coefficients
``rho_k``, and a finite component budget ``k_max`` standing in for the
infinite expansion.  A realization fixes concrete per-component triples
``(C_k, rho_k, sigma2_k)`` tied together by the stationary variance identity

    sigma2_k = C_k * (1 - rho_k**2),

which guarantees unit variance for the normalized coefficient processes.

All randomness enters through an explicit ``numpy.random.Generator``; every
function here is pure given its stream, so independent streams may be used
from concurrent workers without synchronization.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Open-interval clamp for Beta draws: keeps sigma2 > 0 and |rho| < 1.
RHO_CLAMP_EPS = 1e-12
# Largest share of a drawn component's draws the clamp may rewrite.
MAX_CLAMPED_SHARE = 0.01

# Largest k for the shape a_k = 2**k: beyond it the product
# a*(a+1) in prior_mean_sq overflows to inf and the prior limits turn nan.
MAX_PRIOR_EXPONENT = 511

RHO_MODES = ("redraw", "fixed", "explicit")


@dataclass(frozen=True)
class EigenvalueLaw:
    """Power-law eigenvalues ``C_k = k**(-exponent)`` of the covariance
    operator; a finite ``exponent > 1`` makes the operator trace class."""

    exponent: float

    def __post_init__(self):
        if not 1.0 < self.exponent < math.inf:
            raise ValueError(
                f"power-law exponent must be finite and exceed 1 for a "
                f"trace-class operator, got {self.exponent}"
            )

    @classmethod
    def power_law(cls, exponent: float) -> "EigenvalueLaw":
        return cls(exponent=float(exponent))


def eigenvalues(law: EigenvalueLaw, k: int) -> np.ndarray:
    """C_1..C_k = j**(-exponent) as an array, one Python float power each:
    numpy's ``**`` rounds differently in the last bit at some j (j = 2 for
    exponent 1.1, j = 31 for 2.0)."""
    if k < 1:
        raise ValueError(f"component count must be >= 1, got {k}")
    return np.array([float(j) ** -law.exponent for j in range(1, k + 1)])


@dataclass(frozen=True)
class PriorSpec:
    """The componentwise Beta(a_k, b_k) prior on the autocorrelation
    coefficients, a_k = 2**k and b_k = 1.01, as ``prior_shapes`` gives it.

    Its mass moves toward one as k grows while the prior-variance series
    stays summable.  The package relies on b_k > 1, which makes
    ``draw_rho``'s Beta draw the Gamma ratio G_a / (G_a + G_b), and on
    a_k + b_k >= 3.01 > 2, which keeps the penalized quadratic's
    discriminant nonnegative.  No helper reads it; it stays while perfbench
    names it (ROADMAP item 4).
    """


def prior_shapes(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The Beta shapes (a_j, b_j) = (2**j, 1.01) of components 1..k, as arrays."""
    if k < 1:
        raise ValueError(f"component count must be >= 1, got {k}")
    if k > MAX_PRIOR_EXPONENT:
        raise OverflowError(
            f"prior shape 2**{k} has overflowing moments "
            f"(limit 2**{MAX_PRIOR_EXPONENT})"
        )
    return np.ldexp(1.0, np.arange(1, k + 1)), np.full(k, 1.01)


def prior_mean_sq(k: int) -> np.ndarray:
    """Prior second moments E(rho_j**2) = a(a+1) / ((a+b)(a+b+1)), j = 1..k."""
    a, b = prior_shapes(k)
    return a * (a + 1.0) / ((a + b) * (a + b + 1.0))


def draw_rho(a, b, rngs) -> np.ndarray:
    """One Beta(a_j, b_j) draw per component from each stream, clamped into
    the open unit interval: row i of the result holds stream i's draws.

    Each stream makes one scalar ``Generator.beta`` call per component,
    about 1 us each on Python floats.  Every b_j must exceed 1, as the
    prior's b_k = 1.01 does: then numpy's sampler is exactly G_a / (G_a + G_b),
    drawn G_a then G_b, which keeps the prior's huge shapes (a_k = 2**k)
    well conditioned.
    """
    a, b = np.asarray(a, float).tolist(), np.asarray(b, float).tolist()
    out = []
    for rng in rngs:
        out += map(rng.beta, a, b)
    rho = np.array(out).reshape(len(rngs), len(a))
    return np.minimum(np.maximum(rho, RHO_CLAMP_EPS, out=rho), 1.0 - RHO_CLAMP_EPS, out=rho)


@dataclass(frozen=True)
class SpectralModelSpec:
    """Static description of a simulatable model family.

    ``rho_mode`` selects how coefficients are produced: ``redraw`` draws a
    fresh prior sample per replication, ``fixed`` draws once and shares the
    draw across replications, ``explicit`` uses user-supplied values (which
    must lie strictly inside (0, 1)).  ``prior`` is unused, the prior being
    the one rule of ``prior_shapes``; the field stays while perfbench
    passes it (ROADMAP item 4).
    """

    law: EigenvalueLaw
    k_max: int
    prior: PriorSpec = PriorSpec()
    rho_mode: str = "redraw"
    rho_values: tuple[float, ...] | None = None

    def __post_init__(self):
        k = self.k_max
        if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
            raise ValueError(f"component budget k_max must be an integer >= 1, got {k!r}")
        if self.k_max > MAX_PRIOR_EXPONENT:
            raise ValueError(
                f"the prior covers k_max <= {MAX_PRIOR_EXPONENT}, got {self.k_max}"
            )
        if self.rho_mode not in RHO_MODES:
            raise ValueError(
                f"rho_mode must be one of {RHO_MODES}, got {self.rho_mode!r}"
            )
        if self.rho_mode == "explicit":
            if not self.rho_values:
                raise ValueError(f"explicit rho_mode requires rho_values, got {self.rho_values!r}")
            if not isinstance(self.rho_values, (tuple, list)) or not all(
                isinstance(v, numbers.Real) and not isinstance(v, bool)
                for v in self.rho_values
            ):
                raise ValueError(
                    f"explicit rho values must be a sequence of numbers, got {self.rho_values!r}"
                )
            # v before float(v), which overflows past float range and can round to 0 or 1
            if any(not (0 < v < 1 and 0 < float(v) < 1) for v in self.rho_values):
                raise ValueError("explicit rho values must lie strictly in (0, 1)")
            vals = tuple(float(v) for v in self.rho_values)
            if len(vals) < self.k_max:
                raise ValueError(
                    f"explicit rho values cover {len(vals)} components, "
                    f"k_max is {self.k_max}"
                )
            object.__setattr__(self, "rho_values", vals)
        elif self.rho_values is not None:
            raise ValueError("rho_values only apply to explicit rho_mode")


def innovation_variance(C, rho):
    """sigma2 = C * (1 - rho**2) elementwise, the stationary variance identity."""
    return C * (1.0 - rho**2)


@dataclass(frozen=True)
class ModelRealization:
    """Concrete per-component triples (C_k, rho_k, sigma2_k)."""

    C: np.ndarray
    rho: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        C = np.asarray(self.C, dtype=float)
        rho = np.asarray(self.rho, dtype=float)
        sigma2 = np.asarray(self.sigma2, dtype=float)
        if not (C.shape == rho.shape == sigma2.shape) or C.ndim != 1 or C.size == 0:
            raise ValueError("C, rho, sigma2 must be equal-length 1-d sequences")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "sigma2", sigma2)

    @property
    def k(self) -> int:
        return self.C.size


def realize(spec: SpectralModelSpec, rng: np.random.Generator | None = None) -> ModelRealization:
    """Materialize a model realization up to spec.k_max components.

    Coefficients are drawn (or copied) in increasing component order, so two
    specs differing only in k_max agree on their common prefix when given
    identical streams.  The innovation variances are ``innovation_variance``'s,
    so the stationary identity holds to machine precision by construction.
    """
    C = eigenvalues(spec.law, spec.k_max)
    if spec.rho_mode == "explicit":
        rho = np.array(spec.rho_values[: spec.k_max])
    else:
        if rng is None:
            raise ValueError(f"rho_mode {spec.rho_mode!r} requires a random stream")
        rho = draw_rho(*prior_shapes(spec.k_max), [rng])[0]
    return ModelRealization(C=C, rho=rho, sigma2=innovation_variance(C, rho))


def truncate_realization(real: ModelRealization, k: int) -> ModelRealization:
    """Restrict a realization to its first k components."""
    if not 1 <= k <= real.k:
        raise ValueError(f"cannot truncate realization of {real.k} components to {k}")
    return ModelRealization(C=real.C[:k], rho=real.rho[:k], sigma2=real.sigma2[:k])
