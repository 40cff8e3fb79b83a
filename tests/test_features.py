"""The blocked contribution-feature builder against the O(n^2 m) tensor."""

import numpy as np
import pytest

import depcon.kernel
from depcon.inference import aggregate_statistic
from depcon.kernel import contribution_features
from reference import distance_tensor, extended_products


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


def _relative_to_diagonals(fast, reference):
    """Largest |fast - reference| of each entry (j, l) over sqrt(ref_jj ref_ll)."""
    d = np.sqrt(np.einsum("ijj->ij", reference))
    return (np.abs(fast - reference) / (d[:, :, None] * d[:, None, :])).max()


def _extreme_scales(rng):
    z = rng.standard_normal((60, 5))
    z[:, 1] += z[:, 0]
    z[:, 3] += z[:, 2] ** 2
    return z * [1e-150, 1e150, 1.0, 1.0, 1.0] + [0.0, 0.0, 1e4, 1e10, -1e10]


def _heavy_tails(rng):
    return rng.pareto(0.5, (200, 3))


@pytest.mark.parametrize("standardize", [True, False])
def test_extreme_scales_match_distance_tensor(standardize):
    # entrywise against the diagonals: a per-sample max would hide the small-scale columns
    x = _extreme_scales(np.random.default_rng(5))
    tensor = distance_tensor(x)
    slices = tensor.z if standardize else tensor.c
    reference = np.einsum("ikj,ikl->ijl", slices, slices)
    fast = contribution_features(x, standardize=standardize)
    assert _relative_to_diagonals(fast, reference) <= 1e-12


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended precision")
def test_heavy_tails_match_extended_precision():
    # n alpha_i alpha_i^T dwarfs Z_i^T Z_i here; subtracting it alone is off by 2e-12
    x = np.random.default_rng(1).pareto(0.5, (1000, 3))
    wide = x.astype(np.longdouble)
    z = np.abs(wide[:, None, :] - wide[None, :, :])
    row_mean = z.mean(axis=1)
    grand_mean = row_mean.mean(axis=0)
    z -= row_mean[:, None, :]
    z -= row_mean[None, :, :]
    z += grand_mean
    z /= grand_mean
    reference = np.einsum("ikj,ikl->ijl", z, z)
    assert _relative_to_diagonals(contribution_features(x), reference) <= 1e-12


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended precision")
def test_heavy_tails_at_scale_match_extended_precision():
    # at n = 8000 the float64 tensor would take 1.5 GB and be off by about 1e-12
    # itself; the per-sample oracle checks each column's largest sample and 13 others
    x = np.random.default_rng(1).pareto(0.5, (8000, 3))
    rows = np.concatenate([x.argmax(axis=0), np.random.default_rng(2).choice(8000, 13, replace=False)])
    reference = extended_products(x, rows)
    assert _relative_to_diagonals(contribution_features(x)[rows], reference) <= 1e-12


@pytest.mark.parametrize("make", [_random, _heavy_tails])
@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("block_bytes", [1, None])  # 1: one-row blocks; None: the default
@pytest.mark.parametrize("threads", [1, 2])
def test_features_and_statistic_exactly_symmetric(
    monkeypatch, make, standardize, block_bytes, threads
):
    if block_bytes is not None:
        monkeypatch.setattr(depcon.kernel, "DEFAULT_BLOCK_BYTES", block_bytes)
    x = make(np.random.default_rng(3))
    fast = contribution_features(x, standardize=standardize, threads=threads)
    assert np.array_equal(fast, fast.transpose(0, 2, 1))
    statistic = aggregate_statistic(x, threads=threads)
    assert np.array_equal(statistic, statistic.T)
