from dataclasses import fields

import numpy as np
import pytest

from depcon.clustering import select_k
from depcon.embedding import kpca_fit, kpca_transform, linear_pca_scores
from depcon.errors import OutOfRangeError, RankDeficientWarning
from reference import (
    depcon_gram,
    double_centred,
    force_eigh_fallback,
    rank_one_gram,
    rbf_gram,
    spy_factor_routes,
)


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


def test_projection_reproduces_training_scores(monkeypatch):
    # HKH v / sqrt(lambda) = v sqrt(lambda): projecting the training samples
    # onto the components gives their scores, here on the Cholesky route
    rng = np.random.default_rng(2)
    from depcon.kernel import gram_matrix

    gram = gram_matrix(rng.standard_normal((25, 3))).values
    routes = spy_factor_routes(monkeypatch)
    model = kpca_fit(gram, 2)
    assert routes == ["cholesky"]
    projected = double_centred(gram) @ model.coefficients
    assert np.abs(projected - kpca_transform(model)).max() < 1e-9


def test_projection_duplicates_and_matching_rows(monkeypatch):
    # a Gaussian Gram, full-rank but for sample 11 copying sample 4, takes the
    # eigh route; the copies get one score and each row satisfies HKH v = lambda v
    points = np.random.default_rng(3).standard_normal((20, 2))
    points[11] = points[4]
    gram = np.exp(-((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    routes = spy_factor_routes(monkeypatch)
    model = kpca_fit(gram, 2)
    assert routes == ["declined", "eigh"]
    train = kpca_transform(model)
    assert np.abs(train[4] - train[11]).max() < 1e-9
    projected = double_centred(gram) @ model.coefficients
    assert np.abs(projected - train).max() < 1e-9


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
    # n x d coefficients and the d eigenvalues
    rng = np.random.default_rng(8)
    from depcon.kernel import gram_matrix

    n, d = 40, 3
    model = kpca_fit(gram_matrix(rng.standard_normal((n, 4))), d)
    assert [f.name for f in fields(model)] == ["eigenvalues", "coefficients"]
    assert model.coefficients.shape == (n, d) and model.eigenvalues.shape == (d,)


def _two_point_gram():
    return np.array([[1.0, 0.3], [0.3, 1.0]])


def _indefinite_gram():
    noise = np.random.default_rng(9).standard_normal((20, 20))
    return np.eye(20) + 0.3 * (noise + noise.T)


def test_indefinite_gram_keeps_positive_components():
    # a symmetric Gram with negative eigenvalues is accepted; only the
    # positive eigenvalues above the rank tolerance become components
    gram = _indefinite_gram()
    assert np.linalg.eigvalsh(gram).min() < 0
    model = kpca_fit(gram, 4)
    assert (model.eigenvalues > 0).all()
    assert np.all(np.diff(model.eigenvalues) <= 0)
    projected = double_centred(gram) @ model.coefficients
    assert np.abs(projected - kpca_transform(model)).max() < 1e-9


def test_depcon_gram_never_reaches_eigh(monkeypatch):
    # n = 600, rank 36: select_k and kpca_fit both take the pivoted Cholesky
    gram = depcon_gram()
    routes = spy_factor_routes(monkeypatch)
    select_k(gram, range(2, 11), "vrc", seed=1, restarts=2)
    kpca_fit(gram, 2)
    assert routes == ["cholesky", "cholesky"]


@pytest.mark.parametrize(
    "make_gram, d",
    [
        (_two_point_gram, 1),
        (rank_one_gram, 1),
        (depcon_gram, 2),
        (_indefinite_gram, 3),
        (rbf_gram, 3),
    ],
    ids=["n=2", "rank-1", "depcon", "indefinite", "full-rank"],
)
def test_cholesky_and_fallback_fit_alike(monkeypatch, make_gram, d):
    # the Cholesky route's SVD and the eigh route give one model, and both
    # match the top eigenvalues of the double-centred Gram
    gram = make_gram()
    expected = np.linalg.eigvalsh(double_centred(gram))[::-1][:d]
    model = kpca_fit(gram, d)
    force_eigh_fallback(monkeypatch)
    fallback = kpca_fit(gram, d)
    for fitted in (model, fallback):
        assert np.allclose(fitted.eigenvalues, expected, rtol=1e-12, atol=0.0)
    assert np.abs(kpca_transform(model) - kpca_transform(fallback)).max() < 1e-12


@pytest.mark.parametrize(
    "make_gram, d", [(_indefinite_gram, 3), (rbf_gram, 3)], ids=["indefinite", "full-rank"]
)
def test_fallback_fit_reads_eigh_pairs_without_an_svd(monkeypatch, make_gram, d):
    # the eigh route already holds orthogonal eigenvectors, so no second
    # O(n^3) decomposition follows it
    gram = make_gram()
    routes = spy_factor_routes(monkeypatch)
    svd = np.linalg.svd
    svd_calls = []

    def spied_svd(*args, **kwargs):
        svd_calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spied_svd)
    model = kpca_fit(gram, d)
    assert routes == ["declined", "eigh"] and svd_calls == []
    eigenvalues, vectors = np.linalg.eigh(double_centred(gram))
    assert np.allclose(model.eigenvalues, eigenvalues[::-1][:d], rtol=1e-12, atol=0.0)
    expected = vectors[:, ::-1][:, :d] / np.sqrt(model.eigenvalues)
    expected *= np.sign(expected[np.argmax(np.abs(expected), axis=0), np.arange(d)])
    assert np.abs(model.coefficients - expected).max() < 1e-12 * np.abs(expected).max()


def test_constant_gram_raises_on_either_route(monkeypatch):
    for force in (False, True):
        if force:
            force_eigh_fallback(monkeypatch)
        with pytest.raises(OutOfRangeError):
            kpca_fit(np.ones((6, 6)), 2)


def test_fit_validation():
    with pytest.raises(OutOfRangeError):
        kpca_fit(np.eye(5), 5)
    with pytest.raises(OutOfRangeError):
        kpca_fit(np.eye(5), 0)


@pytest.mark.parametrize("n, m, d", [(20, 6, 0), (20, 6, 7), (4, 6, 4)],
                         ids=["d=0", "d>m", "d>n-1"])
def test_linear_pca_scores_rejects_component_count(n, m, d):
    points = np.random.default_rng(7).standard_normal((n, m))
    with pytest.raises(OutOfRangeError, match=f"got d={d}"):
        linear_pca_scores(points, d)


def test_linear_pca_scores_shape_and_centering():
    rng = np.random.default_rng(7)
    points = rng.standard_normal((20, 6))
    scores = linear_pca_scores(points, 2)
    assert scores.shape == (20, 2)
    assert np.abs(scores.mean(axis=0)).max() < 1e-9
    variances = scores.var(axis=0)
    assert variances[0] >= variances[1]
