"""Shared reference implementations used as independent oracles.

These deliberately avoid the library's code paths (no lfilter, no fsum)
so agreement between the two routes is meaningful.
"""
import math

import numpy as np


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


def naive_sums(col) -> tuple[float, float]:
    """Double-loop sufficient statistics, no compensation, no vectorization."""
    alpha = 0.0
    beta = 0.0
    for i in range(1, len(col)):
        alpha += col[i - 1] * col[i]
        beta += col[i - 1] * col[i - 1]
    return alpha, beta
