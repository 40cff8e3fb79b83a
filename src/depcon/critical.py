"""Chi-square critical values for the dependence contribution map.

Each off-diagonal entry of the critical matrix is the 1-alpha chi-square(1)
quantile itself. With it the aggregate sign rule of the independence test
coincides exactly with the classical distance-covariance test
``n * V_n^2 / S_2 > chi2_{1-alpha}(1)`` (Szekely, Rizzo & Bakirov 2007).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfRangeError, TooFewFeaturesError


def chi2_quantile_1df(p: float) -> float:
    """Quantile of the chi-square distribution with 1 degree of freedom.

    Solves ``erf(sqrt(q / 2)) = p`` (the 1-df chi-square CDF) by bisection
    on ``u = sqrt(q / 2)``; the residual is driven well below 1e-10.
    """
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise OutOfRangeError(f"probability must be in (0, 1), got {p}")
    lo, hi = 0.0, 7.0  # erf(7) == 1.0 in double precision
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17 * max(1.0, lo):
            break
    u = 0.5 * (lo + hi)
    return 2.0 * u * u


def critical_matrix(m: int, alpha: float) -> np.ndarray:
    """The m x m critical matrix T at level alpha: q_{1-alpha} off the diagonal, 0 on it."""
    if m < 2:
        raise TooFewFeaturesError(f"need at least 2 features, got {m}")
    if not (0.0 < alpha < 1.0):
        raise OutOfRangeError(f"alpha must be in (0, 1), got {alpha}")
    if 1.0 - alpha == 1.0:  # no quantile below 1 to solve for
        raise OutOfRangeError(f"alpha {alpha} is too small: 1 - alpha rounds to 1.0")
    values = np.full((m, m), chi2_quantile_1df(1.0 - alpha), dtype=np.float64)
    np.fill_diagonal(values, 0.0)
    return values
