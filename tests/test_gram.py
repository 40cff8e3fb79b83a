"""The one Gram path, kappa = U_a U_b^T: degenerate samples and far offsets."""

import numpy as np
import pytest

from depcon.critical import critical_matrix
from depcon.errors import DegenerateSampleWarning
from depcon.inference import aggregate_statistic
from depcon.kernel import _gram_from_features, contribution_features, gram_matrix


def _cos_dependent(n=400, m=4, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, m))
    x[:, 1] = np.cos(2.0 * x[:, 0]) + 0.3 * x[:, 1]
    return x


@pytest.mark.parametrize("offset", [1e4, 1e6, 1e8, 1e10])
def test_far_offset_matches_the_same_points_near_zero(offset):
    # (x + offset) - offset is exactly the points x + offset holds, moved to 0
    shifted = _cos_dependent() + offset
    near_zero = shifted - offset
    gram_far, gram_near = gram_matrix(shifted).values, gram_matrix(near_zero).values
    assert np.abs(gram_far - gram_near).max() <= 1e-12
    stat_far, stat_near = aggregate_statistic(shifted), aggregate_statistic(near_zero)
    assert np.abs(stat_far - stat_near).max() <= 1e-9 * np.abs(stat_near).max()


def test_degenerate_sample_is_zeroed_and_named():
    x = _cos_dependent(n=12)
    critical = critical_matrix(4, 12, 0.1)
    feats = contribution_features(x)
    feats[5] = critical.values  # phi_5 = Z_5^T Z_5 - T = 0
    with pytest.warns(DegenerateSampleWarning, match=r"1 of 12 samples.*: 5$"):
        gram = _gram_from_features(feats, critical)
    assert not gram.values[5].any() and not gram.values[:, 5].any()
    keep = np.arange(12) != 5
    with np.testing.assert_no_warnings():
        rest = _gram_from_features(feats[keep], critical).values
    assert np.abs(gram.values[np.ix_(keep, keep)] - rest).max() <= 1e-15
    with pytest.warns(DegenerateSampleWarning, match=r": 5$"):
        cross = _gram_from_features(feats[keep], critical, feats, critical).values
    assert cross.shape == (11, 12) and not cross[:, 5].any()
