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

# 2**k stops being safely representable as a float64 near the exponent
# limit; refuse shapes beyond this rather than produce infinities.
MAX_PRIOR_EXPONENT = 1020

DEFAULT_K_MAX = 64
DEFAULT_PRIOR_B = 1.01

RHO_MODES = ("redraw", "fixed", "explicit")


@dataclass(frozen=True)
class EigenvalueLaw:
    """Eigenvalue sequence of the covariance operator.

    Either a power law ``C_k = k**(-exponent)`` with ``exponent > 1`` (trace
    class), or an explicit strictly positive, strictly decreasing sequence.
    """

    kind: str
    exponent: float | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == "power_law":
            if self.exponent is None or not self.exponent > 1.0:
                raise ValueError(
                    f"power-law exponent must exceed 1 for a trace-class "
                    f"operator, got {self.exponent}"
                )
        elif self.kind == "explicit":
            if not self.values:
                raise ValueError("explicit law requires a nonempty value sequence")
            vals = tuple(float(v) for v in self.values)
            if any(v <= 0.0 for v in vals):
                raise ValueError("explicit eigenvalues must be strictly positive")
            if any(u <= v for u, v in zip(vals, vals[1:])):
                raise ValueError("explicit eigenvalues must be strictly decreasing")
            object.__setattr__(self, "values", vals)
        else:
            raise ValueError(f"unknown eigenvalue law kind {self.kind!r}")

    @classmethod
    def power_law(cls, exponent: float) -> "EigenvalueLaw":
        return cls(kind="power_law", exponent=float(exponent))

    @classmethod
    def explicit(cls, values) -> "EigenvalueLaw":
        return cls(kind="explicit", values=tuple(float(v) for v in values))


def eigenvalue(law: EigenvalueLaw, k: int) -> float:
    """Return the k-th eigenvalue C_k (components are 1-based)."""
    if k < 1:
        raise IndexError(f"component index must be >= 1, got {k}")
    if law.kind == "power_law":
        return float(k) ** (-law.exponent)
    if k > len(law.values):
        raise IndexError(
            f"component {k} out of range for explicit law of length {len(law.values)}"
        )
    return law.values[k - 1]


@dataclass(frozen=True)
class PriorSpec:
    """Componentwise Beta(a_k, b_k) prior on the autocorrelation coefficients.

    With no explicit sequences the default rule a_k = 2**k, b_k = 1.01
    applies; it concentrates mass near one as k grows while keeping the
    prior-variance series summable.  Explicit sequences must satisfy
    a_k > 0, b_k > 1 and a_k + b_k >= 2 componentwise.
    """

    a: tuple[float, ...] | None = None
    b: tuple[float, ...] | None = None

    def __post_init__(self):
        if (self.a is None) != (self.b is None):
            raise ValueError("prior sequences a and b must be given together")
        if self.a is not None:
            a = tuple(float(v) for v in self.a)
            b = tuple(float(v) for v in self.b)
            if len(a) != len(b):
                raise ValueError(
                    f"prior sequences differ in length: {len(a)} vs {len(b)}"
                )
            if any(v <= 0.0 for v in a):
                raise ValueError("prior shapes a_k must be strictly positive")
            if any(v <= 1.0 for v in b):
                raise ValueError("prior shapes b_k must exceed 1")
            if any(x + y < 2.0 for x, y in zip(a, b)):
                raise ValueError("prior shapes must satisfy a_k + b_k >= 2")
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)


def prior_params(prior: PriorSpec, k: int) -> tuple[float, float]:
    """Return the Beta shape pair (a_k, b_k) for component k (1-based)."""
    if k < 1:
        raise IndexError(f"component index must be >= 1, got {k}")
    if prior.a is not None:
        if k > len(prior.a):
            raise IndexError(
                f"component {k} out of range for explicit prior of length {len(prior.a)}"
            )
        return prior.a[k - 1], prior.b[k - 1]
    if k > MAX_PRIOR_EXPONENT:
        raise OverflowError(
            f"default prior shape 2**{k} exceeds the representable range "
            f"(limit 2**{MAX_PRIOR_EXPONENT})"
        )
    return math.ldexp(1.0, k), DEFAULT_PRIOR_B


def prior_mean(prior: PriorSpec, k: int) -> float:
    """Prior mean E(rho_k) = a / (a + b)."""
    a, b = prior_params(prior, k)
    return a / (a + b)


def prior_mean_sq(prior: PriorSpec, k: int) -> float:
    """Prior second moment E(rho_k**2) = a(a+1) / ((a+b)(a+b+1))."""
    a, b = prior_params(prior, k)
    return a * (a + 1.0) / ((a + b) * (a + b + 1.0))


def prior_variance(prior: PriorSpec, k: int) -> float:
    """Prior variance a*b / ((a+b+1)(a+b)**2).

    These are the terms of the summability series that makes the infinite
    product prior well defined; for the default rule they decay like 2**(-k).
    """
    a, b = prior_params(prior, k)
    s = a + b
    return a * b / ((s + 1.0) * s * s)


def draw_rho(prior: PriorSpec, k: int, rng: np.random.Generator) -> float:
    """Draw one Beta(a_k, b_k) variate, clamped into the open unit interval.

    Sampled as G_a / (G_a + G_b) with independent Gamma variates so that the
    default rule's huge shapes (a_k = 2**k) stay well conditioned; direct
    Beta samplers are not reliable in that range.
    """
    a, b = prior_params(prior, k)
    ga = rng.gamma(a)
    gb = rng.gamma(b)
    rho = ga / (ga + gb)
    return float(min(max(rho, RHO_CLAMP_EPS), 1.0 - RHO_CLAMP_EPS))


@dataclass(frozen=True)
class SpectralModelSpec:
    """Static description of a simulatable model family.

    ``rho_mode`` selects how coefficients are produced: ``redraw`` draws a
    fresh prior sample per replication, ``fixed`` draws once and shares the
    draw across replications, ``explicit`` uses user-supplied values (which
    must lie strictly inside (0, 1)).
    """

    law: EigenvalueLaw
    prior: PriorSpec = PriorSpec()
    k_max: int = DEFAULT_K_MAX
    rho_mode: str = "redraw"
    rho_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError(f"component budget k_max must be >= 1, got {self.k_max}")
        if self.prior.a is None and self.k_max > MAX_PRIOR_EXPONENT:
            raise ValueError(
                f"the default prior covers k_max <= {MAX_PRIOR_EXPONENT}, got {self.k_max}"
            )
        if self.rho_mode not in RHO_MODES:
            raise ValueError(
                f"rho_mode must be one of {RHO_MODES}, got {self.rho_mode!r}"
            )
        if self.rho_mode == "explicit":
            if not self.rho_values:
                raise ValueError("explicit rho_mode requires rho_values")
            if not isinstance(self.rho_values, (tuple, list)) or not all(
                isinstance(v, numbers.Real) and not isinstance(v, bool)
                for v in self.rho_values
            ):
                raise ValueError(
                    f"explicit rho values must be a sequence of numbers, got {self.rho_values!r}"
                )
            vals = tuple(float(v) for v in self.rho_values)
            if any(not 0.0 < v < 1.0 for v in vals):
                raise ValueError("explicit rho values must lie strictly in (0, 1)")
            if len(vals) < self.k_max:
                raise ValueError(
                    f"explicit rho values cover {len(vals)} components, "
                    f"k_max is {self.k_max}"
                )
            object.__setattr__(self, "rho_values", vals)
        elif self.rho_values is not None:
            raise ValueError("rho_values only apply to explicit rho_mode")


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
    identical streams.  The innovation variances are computed as
    ``sigma2 = C * (1 - rho**2)``, making the stationary identity hold to
    machine precision by construction.
    """
    ks = np.arange(1, spec.k_max + 1)
    C = np.array([eigenvalue(spec.law, int(k)) for k in ks])
    if spec.rho_mode == "explicit":
        rho = np.array(spec.rho_values[: spec.k_max])
    else:
        if rng is None:
            raise ValueError(f"rho_mode {spec.rho_mode!r} requires a random stream")
        rho = np.array([draw_rho(spec.prior, int(k), rng) for k in ks])
    sigma2 = C * (1.0 - rho**2)
    return ModelRealization(C=C, rho=rho, sigma2=sigma2)


def truncate_realization(real: ModelRealization, k: int) -> ModelRealization:
    """Restrict a realization to its first k components."""
    if not 1 <= k <= real.k:
        raise IndexError(f"cannot truncate realization of {real.k} components to {k}")
    return ModelRealization(C=real.C[:k], rho=real.rho[:k], sigma2=real.sigma2[:k])
