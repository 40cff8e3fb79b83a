"""The one Gram path, kappa = U_a U_b^T: degenerate samples, far offsets, no feature stack."""

import tracemalloc

import numpy as np
import pytest

import depcon.kernel
from depcon.cli import _csv_outputs, _matrix_rows, _publish, main
from depcon.critical import critical_matrix
from depcon.errors import DegenerateSampleWarning
from depcon.inference import aggregate_statistic
from depcon.kernel import contribution_features, gram_matrix


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


def test_degenerate_sample_is_zeroed_and_named(monkeypatch):
    x = _cos_dependent(n=12)
    critical = critical_matrix(4, 0.1)
    feats = contribution_features(x)
    feats[5] = critical  # phi_5 = Z_5^T Z_5 - T = 0
    keep = np.arange(12) != 5
    # every Gram below takes its products from these stacks and this critical matrix
    stacks = {12: feats, 11: feats[keep]}
    monkeypatch.setattr(depcon.kernel, "critical_matrix", lambda m, alpha: critical)
    monkeypatch.setattr(
        depcon.kernel, "_product_blocks", lambda x, a, threads: iter([(0, stacks[len(x)])])
    )
    with pytest.warns(DegenerateSampleWarning, match=r"1 of 12 samples.*: 5$"):
        gram = gram_matrix(x)
    assert not gram.values[5].any() and not gram.values[:, 5].any()
    with np.testing.assert_no_warnings():
        rest = gram_matrix(x[keep]).values
    assert np.abs(gram.values[np.ix_(keep, keep)] - rest).max() <= 1e-15
    with pytest.warns(DegenerateSampleWarning, match=r": 5$"):
        cross = gram_matrix(x[keep], x).values
    assert cross.shape == (11, 12) and not cross[:, 5].any()


def test_gram_paths_hold_no_feature_stack(tmp_path, monkeypatch):
    # gram_matrix and `depcon gram` take each product group as it is built
    def no_stack(*args, **kwargs):
        raise AssertionError("a Gram path built the (n, m, m) stack")

    with monkeypatch.context() as patch:
        patch.setattr(depcon.kernel, "contribution_features", no_stack)
        x = _cos_dependent(n=40)
        assert gram_matrix(x).values.shape == (40, 40)
        assert gram_matrix(x, x[:30]).values.shape == (40, 30)
        data = tmp_path / "data.csv"
        _publish(*_csv_outputs(data, _matrix_rows(x, b","), {"command": "test"}))
        assert main(["gram", str(data), "-o", str(tmp_path / "g.csv")]) == 0
    # the Python allocations traced stay below the Gram, U and 0.6 of a stack
    n, m = 2000, 20
    x = np.random.default_rng(12).standard_normal((n, m))
    tracemalloc.start()
    try:
        gram_matrix(x, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 + 1.6 * n * m * m * 8
