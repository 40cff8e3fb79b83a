"""Hypothesis tests built on the aggregate contribution statistic.

The aggregate statistic is sum_i(phi_i); its (j, j') entry is positive
exactly when the distance-covariance test rejects independence of features
j and j' at the configured level.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SmallSampleWarning
from .critical import critical_matrix
from .kernel import _check_same_features, _feature_sums, _values, _warn_degenerate


@dataclass(frozen=True, eq=False)
class IndependenceResult:
    """Aggregate statistic with per-pair rejection decisions (diagonal not applicable)."""

    statistic: np.ndarray
    reject: np.ndarray
    alpha: float

    def pairs(self):
        """Off-diagonal (j, j') decisions as JSON-ready dicts, j < j'."""
        m = self.statistic.shape[0]
        return [
            {
                "i": j,
                "j": j2,
                "reject": bool(self.reject[j, j2]),
                "statistic": float(self.statistic[j, j2]),
            }
            for j in range(m)
            for j2 in range(j + 1, m)
        ]


@dataclass(frozen=True, eq=False)
class StructureComparison:
    """Two-sample comparison: cross-kernel mass and per-pair sign witnesses."""

    score: float
    different_structure: bool
    witnesses: tuple[tuple[int, int], ...]
    statistic_a: np.ndarray
    statistic_b: np.ndarray


def aggregate_statistic(
    data,
    *,
    alpha: float = 0.1,
    threads=None,
) -> np.ndarray:
    """sum_i(phi_i) = sum_i(Z_i^T Z_i) - n T."""
    values = _values(data)
    critical = critical_matrix(values.shape[1], alpha)
    return _feature_sums(values, threads, critical)[0] - values.shape[0] * critical


def independence_test(
    data,
    *,
    alpha: float = 0.1,
    threads=None,
) -> IndependenceResult:
    """Pairwise unconditional independence test over all feature pairs.

    Rejects (j, j') when the aggregate statistic entry is strictly
    positive. Consistent against any type of dependence.
    """
    values = _values(data)
    if values.shape[0] < 10:
        warnings.warn(
            f"independence test with n={values.shape[0]} < 10 samples is unreliable",
            SmallSampleWarning,
            stacklevel=2,
        )
    statistic = aggregate_statistic(data, alpha=alpha, threads=threads)
    reject = statistic > 0.0
    np.fill_diagonal(reject, False)
    return IndependenceResult(statistic=statistic, reject=reject, alpha=alpha)


def structure_difference_score(
    data_a,
    data_b,
    *,
    alpha: float = 0.1,
    threads=None,
) -> StructureComparison:
    """Two-sample test for differing dependence structure.

    ``score`` is the total cross-Gram kernel mass; a negative total
    certifies that some feature pair is dependent in one dataset and
    independent in the other. The certificate is one-sided:
    ``different_structure`` (``score < 0``) fires only when the two
    structures disagree on more than half of the sign entries, since at
    sign level 2d = m^2 - <O, O'>. ``witnesses`` is the per-pair
    detector: it lists the pairs whose aggregate statistics disagree in
    sign between the datasets, and it is non-empty exactly when the
    sign-level sample-set distance is positive, i.e. when the estimated
    structures lie at a positive graph distance.

    Each dataset's contribution features are built once, a row block at
    a time, and folded into its aggregate statistic and its sum of unit
    contribution vectors as they are built. The cross-Gram total is
    sum_i sum_i' <u_i, u'_i'> = <sum_i u_i, sum_i' u'_i'>, so neither an
    (n, m, m) stack nor an n x n' matrix is built.
    """
    values_a = _values(data_a)
    values_b = _values(data_b)
    _check_same_features(values_a, values_b)
    critical = critical_matrix(values_a.shape[1], alpha)
    total_a, units_a, degenerate_a = _feature_sums(values_a, threads, critical)
    total_b, units_b, degenerate_b = _feature_sums(values_b, threads, critical)
    _warn_degenerate(degenerate_a, stacklevel=2)
    _warn_degenerate(degenerate_b, stacklevel=2)
    score = float(units_a @ units_b)
    stat_a = total_a - values_a.shape[0] * critical
    stat_b = total_b - values_b.shape[0] * critical
    m = values_a.shape[1]
    witnesses = tuple(
        (j, j2)
        for j in range(m)
        for j2 in range(j + 1, m)
        if (stat_a[j, j2] > 0.0) != (stat_b[j, j2] > 0.0)
    )
    return StructureComparison(
        score=score,
        different_structure=score < 0.0,
        witnesses=witnesses,
        statistic_a=stat_a,
        statistic_b=stat_b,
    )
