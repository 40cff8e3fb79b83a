"""Chi-square critical values for the dependence contribution map.

Each off-diagonal entry of the critical matrix is the 1-alpha chi-square(1)
quantile itself. With it the aggregate sign rule of the independence test
coincides exactly with the classical distance-covariance test
``n * V_n^2 / S_2 > chi2_{1-alpha}(1)`` (Szekely, Rizzo & Bakirov 2007).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError


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


@dataclass(frozen=True, eq=False)
class CriticalMatrix:
    """m x m matrix of critical values: zero diagonal, one shared off-diagonal value."""

    alpha: float
    values: np.ndarray

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def off_diagonal(self) -> float:
        return float(self.values[0, 1]) if self.m >= 2 else 0.0

    @property
    def sq_norm(self) -> float:
        """Squared Frobenius norm: m(m-1) * t^2."""
        t = self.off_diagonal
        return self.m * (self.m - 1) * t * t


def critical_matrix(m: int, alpha: float) -> CriticalMatrix:
    """Build the critical matrix for m features at level alpha."""
    if m < 2:
        raise OutOfRangeError(f"need at least 2 features, got {m}")
    if not (0.0 < alpha < 1.0):
        raise OutOfRangeError(f"alpha must be in (0, 1), got {alpha}")
    values = np.full((m, m), chi2_quantile_1df(1.0 - alpha), dtype=np.float64)
    np.fill_diagonal(values, 0.0)
    return CriticalMatrix(alpha=alpha, values=values)
