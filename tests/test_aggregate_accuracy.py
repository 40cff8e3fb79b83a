"""The aggregate callers against an extended-precision sum of the products.

Every caller of the folded sums (``aggregate_statistic``, ``mean_contribution``,
``distance_cov_matrix``) is checked on one named stress corpus against
sum_i Z_i^T Z_i built by ``reference.extended_products`` in ``np.longdouble``.
Each entry (j, l) is checked relative to sqrt(S_jj S_ll), the scale of
``_relative_to_diagonals`` in ``test_features.py``, within 1e-12, and where the
oracle's statistic entry exceeds 1e-10 of that scale its sign must match: the
sign is what the independence test decides. A faster aggregate or feature
route must pass this test unchanged.
"""

import numpy as np
import pytest

from depcon.critical import critical_matrix
from depcon.errors import NonFiniteValueError
from depcon.inference import aggregate_statistic
from depcon.kernel import distance_cov_matrix, mean_contribution
from reference import extended_products

M = 4
BOUND = 1e-12
SIGN_FLOOR = 1e-10


def _gaussian(rng, n):
    return rng.standard_normal((n, M))


def _duplicated_rows(rng, n):
    x = rng.standard_normal((n - n // 4, M))
    return np.vstack([x, x[: n // 4]])


def _small_phi(rng, n):
    # +-1 cells and one row of zeros: that sample's Z_i is about -e_i in every
    # column, so with q = 1 its phi_i is near the identity while every other
    # sample's norm grows as n
    return np.vstack([np.where(rng.random((n - 1, M)) < 0.5, -1.0, 1.0), np.zeros((1, M))])


# name: (n, alpha, data), with why each case is here and the largest error of
# each caller (statistic / mean / dCov) relative to sqrt(S_jj S_ll), measured
# on this code at these sizes (x86-64, NumPy 2.4, 80-bit longdouble); all ran
# in about 2.3 s together
CORPUS = {
    # the plain case: 2.1e-15 / 2.2e-15 / 8.1e-16
    "gaussian": (400, 0.1, _gaussian),
    # heavy tails: n alpha_i alpha_i^T dwarfs Z_i^T Z_i, so the rank-one term
    # cancels many bits (the feature builder redoes those rows from Z_i itself):
    # 2.3e-15 / 2.2e-15 / 2.1e-15
    "pareto-0.5": (1000, 0.1, lambda rng, n: rng.pareto(0.5, (n, M))),
    # 4.9e-15 / 4.9e-15 / 4.2e-15
    "pareto-0.3": (1000, 0.1, lambda rng, n: rng.pareto(0.3, (n, M))),
    # ties, where many distances are equal and the sort order breaks them:
    # 5.9e-15 / 5.9e-15 / 5.2e-15
    "ties-3": (400, 0.1, lambda rng, n: rng.integers(0, 3, (n, M)).astype(np.float64)),
    # the largest: 6.5e-15 / 6.5e-15 / 8.0e-15
    "ties-2": (400, 0.1, lambda rng, n: rng.integers(0, 2, (n, M)).astype(np.float64)),
    # the prefix sums of an uncentred column would swamp its differences:
    # 1.6e-15 / 1.6e-15 / 4.1e-16
    "offset-1e10": (400, 0.1, lambda rng, n: _gaussian(rng, n) + 1e10),
    # the statistics do not see the scale; dCov, about 1e-600, rounds to 0:
    # 2.4e-15 / 2.5e-15 / 0
    "spread-1e-300": (400, 0.1, lambda rng, n: _gaussian(rng, n) * 1e-300),
    # dCov, about 1e600, overflows float64 and must raise: 1.5e-15 / 1.5e-15 / raises
    "spread-1e300": (400, 0.1, lambda rng, n: _gaussian(rng, n) * 1e300),
    # 1.0e-15 / 1.1e-15 / 8.3e-16
    "duplicated-rows": (400, 0.1, _duplicated_rows),
    # the smallest sample, where every z is +-1: 0 / 0 / 1.8e-16
    "n-2": (2, 0.1, _gaussian),
    # q_{1-alpha} = 1 at alpha = 1 - erf(sqrt(1/2)); the zero row's ||phi_i||
    # is 2.4 against a median of 800: 6.4e-15 / 6.4e-15 / 9.7e-15
    "small-phi": (400, 0.31731050786291415, _small_phi),
}


def _error(fast, oracle, scale):
    return float((np.abs(fast - oracle) / scale).max())


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended precision")
@pytest.mark.parametrize("case", list(CORPUS))
def test_aggregates_match_extended_precision(case):
    n, alpha, make = CORPUS[case]
    x = make(np.random.default_rng(22), n)
    total = extended_products(x, range(n)).sum(axis=0)
    d = np.sqrt(np.diagonal(total))
    scale = d[:, None] * d[None, :]
    critical = critical_matrix(M, alpha).astype(np.longdouble)
    statistic = aggregate_statistic(x, alpha=alpha)
    mean = mean_contribution(x, alpha=alpha)
    expected = total - n * critical
    assert _error(statistic, expected, scale) <= BOUND
    assert _error(mean, total / n - critical, scale / n) <= BOUND
    decided = np.abs(expected) > SIGN_FLOOR * scale
    assert np.array_equal(np.sign(statistic)[decided], np.sign(expected)[decided])
    assert np.array_equal(np.sign(mean)[decided], np.sign(expected)[decided])

    dcov = extended_products(x, range(n), standardize=False).sum(axis=0) / (n * n)
    d = np.sqrt(np.diagonal(dcov))
    with np.errstate(over="ignore"):
        rounded = dcov.astype(np.float64)
    if not np.isfinite(rounded).all():
        with pytest.raises(NonFiniteValueError):
            distance_cov_matrix(x)
    else:
        assert _error(distance_cov_matrix(x), rounded, d[:, None] * d[None, :]) <= BOUND
