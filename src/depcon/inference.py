"""Hypothesis tests built on the aggregate contribution statistic.

The aggregate statistic is sum_i(phi_i); its (j, j') entry is positive
exactly when the distance-covariance test rejects independence of features
j and j' at the configured level (under the ``szekely`` scaling).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .critical import CriticalScale
from .errors import DimensionMismatchError, SmallSampleWarning
from .kernel import _features_with_critical, _unit_vectors, _values


@dataclass(frozen=True, eq=False)
class IndependenceResult:
    """Aggregate statistic with per-pair rejection decisions (diagonal not applicable)."""

    statistic: np.ndarray
    reject: np.ndarray
    alpha: float
    convention: CriticalScale

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
    convention: CriticalScale | str = CriticalScale.SZEKELY,
    threads=None,
) -> np.ndarray:
    """sum_i(phi_i) = sum_i(Z_i^T Z_i) - n T."""
    return _aggregate(*_features_with_critical(_values(data), alpha, convention, threads))


def _aggregate(feats, critical) -> np.ndarray:
    return feats.sum(axis=0) - feats.shape[0] * critical.values


def independence_test(
    data,
    *,
    alpha: float = 0.1,
    convention: CriticalScale | str = CriticalScale.SZEKELY,
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
    statistic = aggregate_statistic(data, alpha=alpha, convention=convention, threads=threads)
    reject = statistic > 0.0
    np.fill_diagonal(reject, False)
    return IndependenceResult(
        statistic=statistic,
        reject=reject,
        alpha=alpha,
        convention=CriticalScale(convention),
    )


def _unit_sum(feats, critical) -> np.ndarray:
    """sum_i u_i over one dataset's unit contribution vectors."""
    return _unit_vectors(feats, critical).sum(axis=0)


def structure_difference_score(
    data_a,
    data_b,
    *,
    alpha: float = 0.1,
    convention: CriticalScale | str = CriticalScale.SZEKELY,
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

    Each dataset's contribution features are built once, and both
    aggregate statistics are derived from those two stacks. The cross-Gram
    total is sum_i sum_i' <u_i, u'_i'> = <sum_i u_i, sum_i' u'_i'> over the
    unit contribution vectors, so no n x n' matrix is built.
    """
    values_a = _values(data_a)
    values_b = _values(data_b)
    if values_a.shape[1] != values_b.shape[1]:
        raise DimensionMismatchError(
            f"feature counts differ: {values_a.shape[1]} vs {values_b.shape[1]}"
        )
    feats_a, crit_a = _features_with_critical(values_a, alpha, convention, threads)
    feats_b, crit_b = _features_with_critical(values_b, alpha, convention, threads)
    score = float(_unit_sum(feats_a, crit_a) @ _unit_sum(feats_b, crit_b))
    stat_a = _aggregate(feats_a, crit_a)
    stat_b = _aggregate(feats_b, crit_b)
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
