"""The blocked contribution-feature builder against the O(n^2 m) tensor."""

import numpy as np
import pytest

from depcon.kernel import contribution_features
from reference import distance_tensor


def _random(rng):
    return rng.standard_normal((40, 5))


def _ties(rng):
    return rng.integers(0, 3, size=(30, 4)).astype(np.float64)


def _duplicate_rows(rng):
    x = rng.standard_normal((20, 3))
    return np.vstack([x, x[:7], x[:2]])


def _two_samples(rng):
    return np.array([[0.0, 1.0, -2.0], [1.5, -0.5, 3.0]])


@pytest.mark.parametrize("make", [_random, _ties, _duplicate_rows, _two_samples])
@pytest.mark.parametrize("standardize", [True, False])
def test_features_match_distance_tensor(make, standardize):
    x = make(np.random.default_rng(11))
    tensor = distance_tensor(x)
    slices = tensor.z if standardize else tensor.c
    fast = contribution_features(x, standardize=standardize)
    assert fast.shape == (x.shape[0], x.shape[1], x.shape[1])
    for i in range(x.shape[0]):
        reference = slices[i].T @ slices[i]
        assert np.abs(fast[i] - reference).max() <= 1e-12 * np.abs(reference).max()
