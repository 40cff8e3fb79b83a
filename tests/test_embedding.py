from dataclasses import fields

import numpy as np
import pytest

from depcon.embedding import kpca_fit, kpca_project, kpca_transform, linear_pca_scores
from depcon.errors import DimensionMismatchError, OutOfRangeError, RankDeficientWarning


def test_training_scores_centered():
    rng = np.random.default_rng(0)
    from depcon.kernel import gram_matrix

    gram = gram_matrix(rng.standard_normal((40, 4)))
    model = kpca_fit(gram, 3)
    scores = kpca_transform(model)
    assert np.abs(scores.mean(axis=0)).max() < 1e-9


def test_linear_kernel_reproduces_classical_pca():
    # oracle: eigendecomposition of the sample covariance
    rng = np.random.default_rng(1)
    points = rng.standard_normal((30, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2])
    centered = points - points.mean(axis=0)
    model = kpca_fit(centered @ centered.T, 3)
    kernel_scores = kpca_transform(model)

    cov = centered.T @ centered / 1.0
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:3]
    oracle = centered @ eigvecs[:, order]
    for comp in range(3):
        a, b = kernel_scores[:, comp], oracle[:, comp]
        sign = 1.0 if abs(a @ b) == 0 else np.sign(a @ b)
        assert np.abs(a - sign * b).max() < 1e-6


def test_block_gram_first_component_separates():
    gram = np.where(
        (np.arange(20)[:, None] < 10) == (np.arange(20)[None, :] < 10), 0.9, 0.1
    )
    np.fill_diagonal(gram, 1.0)
    scores = kpca_transform(kpca_fit(gram, 1))[:, 0]
    assert np.ptp(np.sign(scores[:10])) == 0 and np.ptp(np.sign(scores[10:])) == 0
    assert np.sign(scores[0]) != np.sign(scores[19])
    assert abs(scores[:10].mean() - scores[10:].mean()) > 0.1


def test_projection_reproduces_training_scores():
    rng = np.random.default_rng(2)
    from depcon.kernel import gram_matrix

    gram = gram_matrix(rng.standard_normal((25, 3))).values
    model = kpca_fit(gram, 2)
    train_scores = kpca_transform(model)
    projected = kpca_project(model, gram)
    assert np.abs(projected - train_scores).max() < 1e-9


def test_projection_duplicates_and_matching_rows():
    rng = np.random.default_rng(3)
    from depcon.kernel import gram_matrix

    gram = gram_matrix(rng.standard_normal((20, 3))).values
    model = kpca_fit(gram, 2)
    cross = np.vstack([gram[4], gram[4], gram[11]])
    coords = kpca_project(model, cross)
    assert np.array_equal(coords[0], coords[1])
    train = kpca_transform(model)
    assert np.abs(coords[0] - train[4]).max() < 1e-9
    assert np.abs(coords[2] - train[11]).max() < 1e-9


def test_projection_dimension_check():
    rng = np.random.default_rng(4)
    from depcon.kernel import gram_matrix

    model = kpca_fit(gram_matrix(rng.standard_normal((10, 2))).values, 2)
    with pytest.raises(DimensionMismatchError):
        kpca_project(model, np.zeros((3, 11)))


def test_eigenvalue_mass_bounded_by_trace():
    rng = np.random.default_rng(5)
    from depcon.kernel import gram_matrix

    gram = gram_matrix(rng.standard_normal((30, 3))).values
    with pytest.warns(RankDeficientWarning):
        model = kpca_fit(gram, 10)
    col_means = gram.mean(axis=0)
    centered_trace = np.trace(gram - col_means[None, :] - col_means[:, None] + gram.mean())
    assert model.eigenvalues.sum() <= centered_trace * (1 + 1e-8)


def test_rank_deficient_warns_and_truncates():
    v = np.linspace(-1, 1, 12)
    gram = np.outer(v, v)  # rank 1
    with pytest.warns(RankDeficientWarning):
        model = kpca_fit(gram, 5)
    assert model.d < 5


def _parallel_cosine_gram():
    # six parallel vectors: HKH is zero up to rounding (an eigenvalue near 2e-16)
    u = np.outer(np.arange(1.0, 7.0), np.random.default_rng(8).standard_normal(5))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u @ u.T


@pytest.mark.parametrize(
    "gram",
    [np.ones((6, 6)), -np.eye(4), np.full((6, 6), 0.7), _parallel_cosine_gram()],
    ids=["constant", "negative", "constant_noise", "parallel"],
)
def test_no_usable_component_raises(gram):
    with pytest.raises(OutOfRangeError):
        kpca_fit(gram, 2)


def test_sign_convention_deterministic():
    rng = np.random.default_rng(6)
    from depcon.kernel import gram_matrix

    gram = gram_matrix(rng.standard_normal((15, 3))).values
    model = kpca_fit(gram, 2)
    for comp in range(2):
        column = model.coefficients[:, comp]
        assert column[np.argmax(np.abs(column))] > 0


def test_model_holds_no_n_by_n_array():
    # training scores come from the eigenpairs, so the model keeps only the
    # n x d coefficients, the n column means and the d eigenvalues
    rng = np.random.default_rng(8)
    from depcon.kernel import gram_matrix

    n, d = 40, 3
    model = kpca_fit(gram_matrix(rng.standard_normal((n, 4))), d)
    arrays = [getattr(model, f.name) for f in fields(model)]
    arrays = [value for value in arrays if isinstance(value, np.ndarray)]
    assert all(value.size < n * n for value in arrays)
    assert sum(value.size for value in arrays) <= n * (d + 1) + d


def test_indefinite_gram_keeps_positive_components():
    # a symmetric Gram with negative eigenvalues is accepted; only the
    # positive eigenvalues above the rank tolerance become components
    rng = np.random.default_rng(9)
    noise = rng.standard_normal((20, 20))
    gram = np.eye(20) + 0.3 * (noise + noise.T)
    assert np.linalg.eigvalsh(gram).min() < 0
    model = kpca_fit(gram, 4)
    assert (model.eigenvalues > 0).all()
    assert np.all(np.diff(model.eigenvalues) <= 0)
    assert np.abs(kpca_project(model, gram) - kpca_transform(model)).max() < 1e-9


def test_fit_validation():
    with pytest.raises(OutOfRangeError):
        kpca_fit(np.eye(5), 5)
    with pytest.raises(OutOfRangeError):
        kpca_fit(np.eye(5), 0)


def test_linear_pca_scores_shape_and_centering():
    rng = np.random.default_rng(7)
    points = rng.standard_normal((20, 6))
    scores = linear_pca_scores(points, 2)
    assert scores.shape == (20, 2)
    assert np.abs(scores.mean(axis=0)).max() < 1e-9
    variances = scores.var(axis=0)
    assert variances[0] >= variances[1]
