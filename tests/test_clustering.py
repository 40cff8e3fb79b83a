import os
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import depcon
from depcon.clustering import (
    _factor,
    adjusted_rand_index,
    calinski_harabasz,
    kernel_kmeans,
    lloyd_kmeans,
    select_k,
    silhouette_from_distances,
    silhouette_score,
    variance_ratio_criterion,
)
from depcon.embedding import kpca_fit, linear_pca_scores
from depcon.errors import (
    DegenerateLabelsError,
    DimensionMismatchError,
    KTooLargeError,
    LengthMismatchError,
    NonFiniteValueError,
    NotSquareError,
    OutOfRangeError,
    TooFewFeaturesError,
)
from reference import (
    depcon_gram,
    double_centred,
    force_eigh_fallback,
    gram_sum_variance_ratio,
    kmeans_single_restart,
    rank_one_gram,
    rbf_gram,
    seed_labels,
    spy_factor_routes,
    sq_distances,
)


def ideal_block_gram(sizes):
    """within-block kappa 1, cross-block -1 (rank-deficient but PSD for 2 blocks)."""
    labels = np.concatenate([[i] * s for i, s in enumerate(sizes)])
    gram = np.where(labels[:, None] == labels[None, :], 1.0, -1.0)
    return gram, labels


def separated_gram(sizes, within=0.9, cross=0.1):
    labels = np.concatenate([[i] * s for i, s in enumerate(sizes)])
    gram = np.where(labels[:, None] == labels[None, :], within, cross)
    np.fill_diagonal(gram, 1.0)
    return gram, labels


# ---------------------------------------------------------------- kernel k-means


def test_ideal_two_blocks_perfect_split():
    gram, truth = ideal_block_gram([12, 8])
    result = kernel_kmeans(gram, 2, seed=0)
    assert adjusted_rand_index(truth, result.labels) == 1.0
    assert result.converged


def test_kmeans_converges_with_more_clusters_than_distinct_points():
    # two distinct points, k=3: two means land on one point and their
    # distances tie up to rounding, which must not move points back and forth
    gram, _ = ideal_block_gram([12, 8])
    for seed in range(15):
        assert kernel_kmeans(gram, 3, seed=seed, restarts=2).converged


def test_k_equal_n_zero_objective():
    rng = np.random.default_rng(0)
    from depcon.kernel import gram_matrix

    gram = gram_matrix(rng.standard_normal((6, 3))).values
    result = kernel_kmeans(gram, 6, seed=1)
    assert result.objective == pytest.approx(0.0, abs=1e-9)
    assert sorted(result.labels.tolist()) == list(range(6))


@pytest.mark.parametrize("n", [4, 6, 10])
def test_alternating_labels_stop_without_converging(n):
    # on -I the labels alternate with period 2 from the start labels; the
    # run stops once they repeat instead of running all max_iter steps
    gram = -np.eye(n)
    result = kernel_kmeans(gram, 2, seed=0, restarts=1)
    assert result.iterations <= 3
    assert not result.converged
    y, s, _ = _factor(gram)
    starts = start_labels(y, s, 2, "plusplus", 3, 0)
    for run in assert_matches_single_restarts(y, s, 2, starts, 100):
        assert run.iterations <= 3


def nan_and_inf(values):
    for bad in (np.nan, np.inf, -np.inf):
        copy = np.array(values, dtype=np.float64)
        copy[1, 0] = copy[0, 1] = bad
        yield copy


@pytest.mark.parametrize(
    "entry",
    [
        lambda gram: kernel_kmeans(gram, 2),
        lambda gram: select_k(gram, range(2, 4)),
        lambda gram: kpca_fit(gram, 2),
        lambda gram: variance_ratio_criterion(gram, np.arange(gram.shape[0]) % 2),
        lambda gram: silhouette_score(gram, np.arange(gram.shape[0]) % 2),
    ],
    ids=["kernel_kmeans", "select_k", "kpca_fit", "variance_ratio_criterion", "silhouette_score"],
)
def test_non_finite_gram_rejected(entry):
    gram, _ = separated_gram([4, 4])
    for bad in nan_and_inf(gram):
        with pytest.raises(NonFiniteValueError):
            entry(bad)


def test_non_finite_points_rejected():
    points = np.random.default_rng(0).standard_normal((8, 2))
    for bad in nan_and_inf(points):
        with pytest.raises(NonFiniteValueError):
            lloyd_kmeans(bad, 2)
    # finite points whose squared distances overflow, for every start
    for start in ({}, {"init": "random"}, {"init_labels": np.arange(8) % 2}):
        with pytest.raises(NonFiniteValueError):
            lloyd_kmeans(points * 1e200, 2, **start)


@pytest.mark.parametrize(
    "baseline",
    [
        lambda points: lloyd_kmeans(points, 2),
        lambda points: calinski_harabasz(points, np.arange(len(points)) % 2),
        lambda points: linear_pca_scores(points, 1),
    ],
    ids=["lloyd_kmeans", "calinski_harabasz", "linear_pca_scores"],
)
def test_coordinate_baselines_reject_bad_points(baseline):
    for bad in (np.ones(5), np.ones((4, 2, 2))):
        with pytest.raises(DimensionMismatchError):
            baseline(bad)
    for bad in nan_and_inf(np.random.default_rng(0).standard_normal((8, 2))):
        with pytest.raises(NonFiniteValueError):
            baseline(bad)
    with pytest.raises(TooFewFeaturesError):
        baseline(np.ones((5, 0)))


def test_kernel_kmeans_linear_gram_matches_lloyd():
    # with K = X X^T, kernel k-means follows Lloyd's exactly from a shared start;
    # instances where an empty-cluster repair fires are excluded here and
    # covered by test_kernel_kmeans_linear_gram_matches_lloyd_with_repairs
    rng = np.random.default_rng(1)
    clean = 0
    attempts = 0
    while clean < 20:
        attempts += 1
        assert attempts < 200
        n, m, k = 24, 2, 3
        points = rng.standard_normal((n, m)) + 3.0 * rng.integers(0, k, (n, 1))
        seeds = rng.choice(n, size=k, replace=False)
        init = np.argmin(
            ((points[:, None, :] - points[seeds][None, :, :]) ** 2).sum(axis=2), axis=1
        )
        if np.unique(init).size < k:
            continue
        kernel_result = kernel_kmeans(points @ points.T, k, init_labels=init, max_iter=60)
        lloyd_result = lloyd_kmeans(points, k, init_labels=init, max_iter=60)
        if kernel_result.repairs or lloyd_result.repairs:
            continue
        clean += 1
        assert np.array_equal(kernel_result.labels, lloyd_result.labels)
        assert kernel_result.objective == pytest.approx(lloyd_result.objective, rel=1e-9)


def test_kernel_kmeans_linear_gram_matches_lloyd_with_repairs():
    # a start that leaves cluster 2 empty forces a repair; both routes run the
    # same core, so they pick the same point and end at the same labels
    rng = np.random.default_rng(4)
    for _ in range(20):
        n, k = 24, 3
        points = rng.standard_normal((n, 2)) + 3.0 * rng.integers(0, k, (n, 1))
        init = rng.integers(0, 2, n)
        kernel_result = kernel_kmeans(points @ points.T, k, init_labels=init, max_iter=60)
        lloyd_result = lloyd_kmeans(points, k, init_labels=init, max_iter=60)
        assert kernel_result.repairs >= 1
        assert kernel_result.repairs == lloyd_result.repairs
        assert np.array_equal(kernel_result.labels, lloyd_result.labels)
        assert kernel_result.iterations == lloyd_result.iterations
        assert kernel_result.objective == pytest.approx(lloyd_result.objective, rel=1e-9)


def test_lloyd_kmeans_far_from_origin():
    # the distance expansion |x|^2 - 2 x.c + |c|^2 must not cancel at large offsets
    rng = np.random.default_rng(0)
    points = rng.standard_normal((60, 2)) + 4.0 * rng.integers(0, 3, (60, 1))
    base = lloyd_kmeans(points, 3, seed=1)
    shifted = lloyd_kmeans(points + 1e8, 3, seed=1)
    assert np.array_equal(shifted.labels, base.labels)
    assert shifted.objective == pytest.approx(base.objective, rel=1e-6)


def noisy_separated_gram():
    """Symmetric but indefinite: the noise gives it negative eigenvalues."""
    gram, _ = separated_gram([10, 10, 10], within=0.8, cross=0.2)
    rng = np.random.default_rng(2)
    noise = 0.05 * rng.standard_normal(gram.shape)
    noisy = gram + (noise + noise.T) / 2
    np.fill_diagonal(noisy, 1.0)
    return noisy


def gram_sum_distances(gram, labels, k):
    """K_ii - 2 mean_{j in c} K_ij + mean_{j,l in c} K_jl, one cluster at a time."""
    dist = np.empty((gram.shape[0], k))
    for c in range(k):
        members = labels == c
        dist[:, c] = (
            np.diagonal(gram)
            - 2.0 * gram[:, members].mean(axis=1)
            + gram[np.ix_(members, members)].mean()
        )
    return dist


@pytest.mark.parametrize("kind", ["psd", "rank-1", "indefinite", "full-rank"])
def test_kernel_kmeans_agrees_with_gram_sums(kind):
    from depcon.kernel import gram_matrix

    ks = (2, 3)
    if kind == "psd":
        gram = gram_matrix(np.random.default_rng(3).standard_normal((40, 3))).values
    elif kind == "rank-1":
        gram = ideal_block_gram([12, 8])[0]
        ks = (2,)  # two distinct points in feature space
    elif kind == "indefinite":
        gram = noisy_separated_gram()
        assert np.linalg.eigvalsh(gram).min() < 0
    else:
        gram = rbf_gram()
    for k in ks:
        for seed in range(5):
            result = kernel_kmeans(gram, k, seed=seed, restarts=2)
            assert result.converged
            dist = gram_sum_distances(gram, result.labels, k)
            own = dist[np.arange(gram.shape[0]), result.labels]
            expected = np.maximum(own, 0.0).sum()
            assert result.objective == pytest.approx(expected, rel=1e-12, abs=1e-12)
            # a fixed point: no point is closer to another cluster's mean
            assert (own <= dist.min(axis=1) + 1e-12).all()


def test_objective_nonincreasing_trace():
    noisy = noisy_separated_gram()
    result = kernel_kmeans(noisy, 3, seed=3, restarts=4)
    trace = result.objective_trace
    assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))


def start_labels(y, s, k, init, restarts, seed):
    """Each restart's start labels, drawn one restart at a time by the oracle."""
    norms = (y * y) @ s
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.stack(
        [
            seed_labels(y, s, norms, k, init, np.random.default_rng(child))
            for child in seed.spawn(restarts)
        ]
    )


def spy_start_labels(monkeypatch):
    """Record the start labels each stacked Lloyd's loop is given."""
    from depcon import clustering

    starts = []
    original = clustering._lloyd

    def recorded(y, s, norms, k, labels, max_iter):
        starts.append(labels.copy())
        return original(y, s, norms, k, labels, max_iter)

    monkeypatch.setattr(clustering, "_lloyd", recorded)
    return starts


@pytest.mark.parametrize(
    "case", ["depcon", "forced-eigh", "indefinite", "repeated-points", "k-n-minus-1", "random-init", "lloyd"]
)
def test_stacked_seeds_match_single_restart_oracle(monkeypatch, case):
    # every restart's start labels are bitwise those of seeding it alone
    ks, init, restarts = (2, 3, 6, 10), "plusplus", 7
    gram = points = None
    if case in ("depcon", "random-init"):
        gram = depcon_gram(30)
        init = "random" if case == "random-init" else init
    elif case == "forced-eigh":
        force_eigh_fallback(monkeypatch)
        gram = depcon_gram(30)
    elif case == "indefinite":
        gram, ks = noisy_separated_gram(), (2, 3, 5)
    elif case == "repeated-points":
        # four distinct points: once every one is a seed, all weights are 0
        # and the next seed is drawn uniformly from the points not yet seeds
        points = np.repeat(np.random.default_rng(3).standard_normal((4, 2)), [9, 6, 4, 1], axis=0)
        ks = (5, 8, 19)
    elif case == "k-n-minus-1":
        gram, ks = depcon_gram(3), (17,)
    else:
        points = np.random.default_rng(8).standard_normal((50, 3)) + 1e3
    if points is not None:
        y, s = points - points.mean(axis=0), np.ones(points.shape[1])
        run = partial(lloyd_kmeans, points)
    else:
        y, s, _ = _factor(gram)
        run = partial(kernel_kmeans, gram)
    if case == "indefinite":
        assert (s < 0).any()
    starts = spy_start_labels(monkeypatch)
    for k in ks:
        for seed in range(4):
            run(k, init=init, max_iter=1, restarts=restarts, seed=seed)
            expected = start_labels(y, s, k, init, restarts, seed)
            assert starts[-1].shape == expected.shape
            assert np.array_equal(starts[-1], expected)


def test_select_k_seeds_match_single_restart_oracle(monkeypatch):
    gram = depcon_gram(30)
    y, s, _ = _factor(gram)
    starts = spy_start_labels(monkeypatch)
    select_k(gram, range(2, 8), restarts=5, seed=11)
    children = np.random.SeedSequence(11).spawn(6)
    assert len(starts) == 6
    for k, child, got in zip(range(2, 8), children, starts):
        assert np.array_equal(got, start_labels(y, s, k, "plusplus", 5, child))


def test_oracle_distances_match_library_at_large_k():
    # n x k and k x n products first round apart at n = 240, k = 220; the
    # oracle forms k x n as the library does, so it stays bitwise equal there
    from depcon import clustering

    rng = np.random.default_rng(0)
    y = rng.standard_normal((240, 36))
    s = np.where(np.arange(36) < 30, 1.0, -1.0)
    norms = (y * y) @ s
    centers = y[rng.choice(240, 220, replace=False)]
    expected = clustering._distances(y, s, norms, centers).T
    assert np.array_equal(sq_distances(y, s, norms, centers), expected)


def spy_stacked_distances(monkeypatch):
    """Record how many labelings each stacked distance step serves."""
    from depcon import clustering

    sizes = []
    original = clustering._stacked_distances

    def counted(y, s, norms, indicator, *rest):
        sizes.append(indicator.shape[0])
        return original(y, s, norms, indicator, *rest)

    monkeypatch.setattr(clustering, "_stacked_distances", counted)
    return sizes


def test_distances_to_means_computed_once_per_iteration(monkeypatch):
    # the distances after each assignment step are reused by the next step
    sizes = spy_stacked_distances(monkeypatch)
    rng = np.random.default_rng(5)
    points = rng.standard_normal((60, 3))
    result = kernel_kmeans(points @ points.T, 4, seed=9, restarts=1)
    assert result.iterations > 2
    assert len(sizes) == result.iterations + 1


def test_stacked_distances_computed_once_per_step(monkeypatch):
    # one call per step serves every restart still moving; a restart leaves
    # the call after its last step
    rng = np.random.default_rng(5)
    points = rng.standard_normal((60, 3))
    gram = points @ points.T
    y, s, _ = _factor(gram)
    starts = start_labels(y, s, 4, "plusplus", 4, 9)
    iterations = [kmeans_single_restart(y, s, 4, start, 100).iterations for start in starts]
    assert len(set(iterations)) > 1
    sizes = spy_stacked_distances(monkeypatch)
    kernel_kmeans(gram, 4, seed=9, restarts=4)
    assert len(sizes) == max(iterations) + 1
    assert sizes == [sum(i >= step for i in iterations) for step in range(max(iterations) + 1)]


def assert_matches_single_restarts(y, s, k, starts, max_iter):
    from depcon import clustering

    runs = clustering._lloyd(y, s, (y * y) @ s, k, starts, max_iter)
    assert len(runs) == len(starts)
    for start, run in zip(starts, runs):
        expected = kmeans_single_restart(y, s, k, start, max_iter)
        assert np.array_equal(run.labels, expected.labels)
        assert run.iterations == expected.iterations
        assert run.converged == expected.converged
        assert run.repairs == expected.repairs
        assert len(run.objective_trace) == len(expected.objective_trace)
        scale = max(1.0, max(abs(v) for v in expected.objective_trace))
        np.testing.assert_allclose(
            run.objective_trace, expected.objective_trace, rtol=1e-12, atol=1e-12 * scale
        )
        assert run.objective == run.objective_trace[-1]
        # a kept run's labels must not hold every restart's labels alive
        assert run.labels.base is None
    return runs


@pytest.mark.parametrize("max_iter", [1, 2, 100])
@pytest.mark.parametrize(
    "case",
    ["depcon", "indefinite", "repeated-points", "repeated-lloyd", "random-init", "one-restart"],
)
def test_stacked_restarts_match_single_restart_oracle(case, max_iter):
    ks, init, restarts = (2, 5, 8), "plusplus", 6
    if case == "indefinite":
        gram, ks = noisy_separated_gram(), (2, 3, 4)
    elif case == "repeated-points":
        # two distinct points, k=3: two means share a point, so clusters empty mid-loop
        gram, ks, restarts = ideal_block_gram([12, 8])[0], (3,), 10
    elif case == "repeated-lloyd":
        # means of 12 and of 8 copies of one point round apart: the tie rule decides
        ks, restarts = (3,), 10
        points = np.repeat(np.random.default_rng(3).standard_normal((2, 3)), [12, 8], axis=0)
    else:
        gram = depcon_gram(30)
        init = "random" if case == "random-init" else init
        restarts = 1 if case == "one-restart" else restarts
    if case == "repeated-lloyd":
        y, s = points - points.mean(axis=0), np.ones(3)
        run = partial(lloyd_kmeans, points)
    else:
        y, s, _ = _factor(gram)
        run = partial(kernel_kmeans, gram)
    if case == "indefinite":
        assert (s < 0).any()
    rng = np.random.default_rng(7)
    for k in ks:
        for seed in range(3):
            starts = start_labels(y, s, k, init, restarts, seed)
            runs = assert_matches_single_restarts(y, s, k, starts, max_iter)
            # the kept restart is the first of the lowest objectives (1e-12 rule)
            best = runs[0]
            for other in runs[1:]:
                if other.objective < best.objective - 1e-12:
                    best = other
            result = run(k, init=init, max_iter=max_iter, restarts=restarts, seed=seed)
            assert np.array_equal(result.labels, best.labels)
            assert result.objective_trace == best.objective_trace
        # uniform random start labels leave clusters whose means mix distant
        # points, so some steps empty a cluster in some restarts and not others
        for _ in range(3):
            starts = rng.integers(0, k, (restarts, y.shape[0]))
            runs = assert_matches_single_restarts(y, s, k, starts, max_iter)
            if case == "repeated-points":
                assert 0 < sum(r.repairs > 0 for r in runs) < restarts


def test_init_labels_run_matches_single_restart_oracle():
    gram = depcon_gram(30)
    y, s, _ = _factor(gram)
    rng = np.random.default_rng(4)
    for k in (2, 4, 7):
        for _ in range(3):
            start = rng.integers(0, k, gram.shape[0])
            expected = kmeans_single_restart(y, s, k, start, 100)
            result = kernel_kmeans(gram, k, init_labels=start)
            assert np.array_equal(result.labels, expected.labels)
            assert (result.iterations, result.converged, result.repairs) == (
                expected.iterations,
                expected.converged,
                expected.repairs,
            )
            np.testing.assert_allclose(
                result.objective_trace, expected.objective_trace, rtol=1e-12
            )


def test_labels_invariant_to_row_and_column_offsets():
    # K + a 1^T + 1 a^T cancels in every Gram-sum distance, which is why one
    # factor of the double-centred Gram serves k-means on either matrix
    rng = np.random.default_rng(9)
    points = rng.standard_normal((45, 3)) + 4.0 * np.repeat(np.eye(3), 15, axis=0)
    for gram in (points @ points.T, noisy_separated_gram()):
        a = rng.uniform(-1.0, 1.0, gram.shape[0]) * np.abs(gram).max()
        shifted = gram + (a[:, None] + a[None, :])
        for seed in range(3):
            base = kernel_kmeans(gram, 3, seed=seed, restarts=2)
            moved = kernel_kmeans(shifted, 3, seed=seed, restarts=2)
            assert np.array_equal(moved.labels, base.labels)
            assert moved.iterations == base.iterations
        base = select_k(gram, range(2, 6), "vrc", seed=4, restarts=3)
        moved = select_k(shifted, range(2, 6), "vrc", seed=4, restarts=3)
        assert moved.best_k == base.best_k
        for k, assignment in base.assignments.items():
            assert np.array_equal(moved.assignments[k].labels, assignment.labels)


# ---------------------------------------------------------------- the factor


@pytest.mark.parametrize(
    "make_gram, rank",
    [
        (lambda: np.array([[1.0, 0.3], [0.3, 1.0]]), 1),
        (lambda: np.ones((6, 6)), 0),
        (rank_one_gram, 1),
        (depcon_gram, 36),
    ],
    ids=["n=2", "constant", "rank-1", "depcon"],
)
def test_cholesky_factor_reproduces_centred_gram(monkeypatch, make_gram, rank):
    gram = make_gram()
    routes = spy_factor_routes(monkeypatch)
    y, s, spectrum = _factor(gram)
    assert routes == ["cholesky"]
    assert y.shape == (gram.shape[0], rank) and (s == 1).all() and spectrum is None
    centred = double_centred(gram)
    tol = gram.shape[0] * np.finfo(np.float64).eps * np.abs(np.diagonal(centred)).max()
    assert np.abs(y @ y.T - centred).max() <= tol


@pytest.mark.parametrize(
    "make_gram",
    [noisy_separated_gram, lambda: -np.eye(6), rbf_gram, lambda: np.eye(40)],
    ids=["indefinite", "negative", "full-rank", "identity"],
)
def test_indefinite_and_full_rank_grams_take_the_eigh_fallback(monkeypatch, make_gram):
    gram = make_gram()
    routes = spy_factor_routes(monkeypatch)
    y, s, spectrum = _factor(gram)
    assert routes == ["declined", "eigh"]
    centred = double_centred(gram)
    eigenvalues = np.linalg.eigvalsh(centred)
    size = np.abs(eigenvalues)
    kept = size > gram.shape[0] * np.finfo(np.float64).eps * size.max()
    assert y.shape[1] == kept.sum() and (s < 0).sum() == (eigenvalues[kept] < 0).sum()
    # the kept eigenvalues come back ascending, each column's squared norm
    assert np.array_equal(s, np.sign(spectrum)) and np.all(np.diff(spectrum) >= 0)
    assert np.allclose(spectrum, eigenvalues[kept], rtol=1e-12, atol=1e-12 * size.max())
    assert np.allclose((y * y).sum(axis=0), np.abs(spectrum), rtol=1e-12, atol=0.0)
    assert np.abs((y * s) @ y.T - centred).max() < 1e-12 * np.abs(centred).max()


def assert_same_runs(a, b):
    assert np.array_equal(a.labels, b.labels)
    assert (a.iterations, a.converged, a.repairs) == (b.iterations, b.converged, b.repairs)
    assert a.objective == pytest.approx(b.objective, rel=1e-12, abs=1e-12)


def test_cholesky_and_fallback_cluster_alike_on_criterion_12_grams(monkeypatch):
    # criterion 12's first 20 draws: linear Grams of rank 2 with nearest-seed starts
    rng = np.random.default_rng(20240613)
    cases = []
    for _ in range(20):
        points = rng.standard_normal((24, 2)) + 3.0 * rng.integers(0, 3, (24, 1))
        seeds = rng.choice(24, size=3, replace=False)
        init = np.argmin(
            ((points[:, None, :] - points[seeds][None, :, :]) ** 2).sum(axis=2), axis=1
        )
        cases.append((points @ points.T, init))

    def fit_all():
        return [
            (
                kernel_kmeans(gram, 3, init_labels=init, max_iter=60),
                kernel_kmeans(gram, 3, seed=index, restarts=3),
                select_k(gram, range(2, 6), "vrc", seed=index, restarts=3),
            )
            for index, (gram, init) in enumerate(cases)
        ]

    cholesky = fit_all()
    force_eigh_fallback(monkeypatch)
    for (given, seeded, selected), fallback in zip(cholesky, fit_all()):
        assert_same_runs(given, fallback[0])
        assert_same_runs(seeded, fallback[1])
        assert selected.best_k == fallback[2].best_k
        for k, assignment in selected.assignments.items():
            assert_same_runs(assignment, fallback[2].assignments[k])


@pytest.mark.parametrize(
    "gram", [np.array([[1.0, 0.3], [0.3, 1.0]]), rank_one_gram()], ids=["n=2", "rank-1"]
)
def test_cholesky_and_fallback_cluster_alike_on_small_grams(monkeypatch, gram):
    cholesky = [kernel_kmeans(gram, 2, seed=seed, restarts=2) for seed in range(5)]
    force_eigh_fallback(monkeypatch)
    for seed, assignment in enumerate(cholesky):
        assert_same_runs(assignment, kernel_kmeans(gram, 2, seed=seed, restarts=2))


def test_cholesky_and_fallback_select_alike_on_a_depcon_gram(monkeypatch):
    gram = depcon_gram()
    cholesky = select_k(gram, range(2, 11), "vrc", seed=3, restarts=4)
    force_eigh_fallback(monkeypatch)
    fallback = select_k(gram, range(2, 11), "vrc", seed=3, restarts=4)
    assert cholesky.best_k == fallback.best_k
    # scores, like objectives, come from the factor, so they agree to rounding
    assert cholesky.scores == pytest.approx(fallback.scores, rel=1e-12)
    for k, assignment in cholesky.assignments.items():
        assert_same_runs(assignment, fallback.assignments[k])


def test_determinism_and_restart_selection():
    gram, _ = separated_gram([8, 8], within=0.7, cross=0.3)
    a = kernel_kmeans(gram, 2, seed=42)
    b = kernel_kmeans(gram, 2, seed=42)
    assert np.array_equal(a.labels, b.labels) and a.objective == b.objective


def test_k_too_large_and_too_small():
    gram, _ = ideal_block_gram([4, 4])
    with pytest.raises(KTooLargeError):
        kernel_kmeans(gram, 9)
    with pytest.raises(OutOfRangeError):
        kernel_kmeans(gram, 1)
    with pytest.raises(NotSquareError):
        kernel_kmeans(np.zeros((3, 4)), 2)


@pytest.mark.parametrize("runs", [{"max_iter": 0}, {"max_iter": -1}, {"restarts": 0}])
def test_max_iter_and_restarts_below_one_rejected(runs):
    gram, _ = separated_gram([5, 5])
    for fit in (
        lambda: kernel_kmeans(gram, 2, **runs),
        lambda: kernel_kmeans(gram, 2, init_labels=[0, 1] * 5, **runs),
        lambda: lloyd_kmeans(gram, 2, **runs),
        lambda: select_k(gram, range(2, 4), **runs),
    ):
        with pytest.raises(OutOfRangeError, match=next(iter(runs))):
            fit()


# ---------------------------------------------------------------- criteria


def test_vrc_maximal_at_true_k():
    gram, truth = separated_gram([10, 10, 10, 10], within=0.95, cross=0.05)
    scores = {}
    for k in range(2, 9):
        labels = kernel_kmeans(gram, k, seed=5).labels
        scores[k] = variance_ratio_criterion(gram, labels)
    assert max(scores, key=scores.get) == 4


def test_vrc_degenerate_infinite():
    gram = np.ones((6, 6))
    labels = np.array([0, 0, 0, 1, 1, 1])
    assert variance_ratio_criterion(gram, labels) == np.inf


def test_vrc_matches_explicit_calinski_harabasz_for_linear_kernel():
    rng = np.random.default_rng(6)
    points = rng.standard_normal((30, 4))
    labels = rng.integers(0, 3, 30)
    while np.unique(labels).size < 3:
        labels = rng.integers(0, 3, 30)
    kernel_value = variance_ratio_criterion(points @ points.T, labels)
    explicit = calinski_harabasz(points, labels)
    assert kernel_value == pytest.approx(explicit, rel=1e-6)


@pytest.mark.parametrize("route", ["cholesky", "forced-eigh", "full-rank", "indefinite"])
def test_vrc_matches_gram_sums_on_either_factor_route(monkeypatch, route):
    gram = {"full-rank": rbf_gram, "indefinite": noisy_separated_gram}.get(route, depcon_gram)()
    if route == "forced-eigh":
        force_eigh_fallback(monkeypatch)
    routes = spy_factor_routes(monkeypatch)
    result = select_k(gram, range(2, 6), "vrc", seed=1, restarts=2)
    assert routes == (["cholesky"] if route == "cholesky" else ["declined", "eigh"])
    random_labels = np.random.default_rng(8).integers(0, 3, gram.shape[0])
    for k, assignment in result.assignments.items():
        expected = gram_sum_variance_ratio(gram, assignment.labels)
        assert result.scores[k] == pytest.approx(expected, rel=1e-12)
    for labels in (result.assignments[4].labels, random_labels):
        expected = gram_sum_variance_ratio(gram, labels)
        assert variance_ratio_criterion(gram, labels) == pytest.approx(expected, rel=1e-12)


def test_vrc_label_validation():
    gram, _ = ideal_block_gram([4, 4])
    with pytest.raises(DegenerateLabelsError):
        variance_ratio_criterion(gram, np.zeros(8, dtype=int))
    with pytest.raises(LengthMismatchError):
        variance_ratio_criterion(gram, np.zeros(5, dtype=int))


@pytest.mark.parametrize(
    "scorer",
    [variance_ratio_criterion, calinski_harabasz, silhouette_score, silhouette_from_distances],
    ids=["vrc", "calinski-harabasz", "silhouette", "silhouette-from-distances"],
)
@pytest.mark.parametrize(
    "labels", [[0, 0, 1, 1, -1, 2], [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]], ids=["negative", "float"]
)
def test_scorers_reject_negative_and_non_integer_labels(scorer, labels):
    # the matrix serves as Gram, points and distances alike: only the labels are wrong
    gram, _ = separated_gram([3, 3])
    with pytest.raises(OutOfRangeError, match="labels must be"):
        scorer(gram, labels)


def test_silhouette_ideal_blocks():
    gram, truth = ideal_block_gram([10, 10])
    assert silhouette_score(gram, truth) == pytest.approx(1.0, abs=1e-6)


def test_silhouette_random_labels_near_zero():
    rng = np.random.default_rng(7)
    from depcon.kernel import gram_matrix

    gram = gram_matrix(rng.standard_normal((60, 3)))
    labels = rng.integers(0, 3, 60)
    while np.unique(labels).size < 3:
        labels = rng.integers(0, 3, 60)
    assert abs(silhouette_score(gram, labels)) < 0.1


def test_silhouette_singletons_contribute_zero():
    dist = np.array(
        [
            [0.0, 1.0, 4.0],
            [1.0, 0.0, 4.0],
            [4.0, 4.0, 0.0],
        ]
    )
    labels = np.array([0, 0, 1])
    # singleton sample contributes 0: s = (s_0 + s_1 + 0) / 3
    s0 = (4.0 - 1.0) / 4.0
    assert silhouette_from_distances(dist, labels) == pytest.approx((2 * s0) / 3)


def test_silhouette_label_permutation_invariance():
    gram, truth = separated_gram([8, 6, 5], within=0.8, cross=0.2)
    relabeled = (truth + 1) % 3
    assert silhouette_score(gram, truth) == pytest.approx(silhouette_score(gram, relabeled))
    assert variance_ratio_criterion(gram, truth) == pytest.approx(
        variance_ratio_criterion(gram, relabeled)
    )


@pytest.mark.parametrize(
    "dist, labels, error",
    [
        (np.ones((4, 3)), [0, 0, 1, 1], NotSquareError),
        (np.ones(4), [0, 0, 1, 1], NotSquareError),
        (np.ones((3, 4)), [0, 0, 1], NotSquareError),
        (np.full((4, 4), np.nan), [0, 0, 1, 1], NonFiniteValueError),
    ],
    ids=["tall", "1-d", "wide", "all-nan"],
)
def test_silhouette_from_distances_rejects_bad_matrices(dist, labels, error):
    with pytest.raises(error):
        silhouette_from_distances(dist, labels)


# ---------------------------------------------------------------- select_k


def test_select_k_singleton_range():
    gram, _ = separated_gram([10, 10], within=0.9, cross=0.1)
    result = select_k(gram, [3], "vrc", seed=0)
    assert result.best_k == 3 and list(result.scores) == [3]


def test_select_k_finds_true_k_on_separated_gram():
    gram, _ = separated_gram([12, 12, 12], within=0.95, cross=0.05)
    result = select_k(gram, range(2, 8), "vrc", seed=1)
    assert result.best_k == 3
    silhouette_result = select_k(gram, range(2, 8), "silhouette", seed=1)
    assert silhouette_result.best_k == 3


def test_select_k_objective_nonincreasing_in_k():
    gram, _ = separated_gram([12, 12, 12], within=0.9, cross=0.1)
    result = select_k(gram, range(2, 7), "vrc", seed=2, restarts=8)
    objectives = [result.assignments[k].objective for k in sorted(result.assignments)]
    assert all(a >= b - 1e-9 for a, b in zip(objectives, objectives[1:]))


@pytest.mark.parametrize("criterion", ["vrc", "silhouette"])
def test_select_k_validates_the_gram_once(monkeypatch, criterion):
    from depcon import clustering

    calls = []
    original = clustering._gram_values

    def counted(gram):
        calls.append(1)
        return original(gram)

    monkeypatch.setattr(clustering, "_gram_values", counted)
    gram, _ = separated_gram([8, 8, 8], within=0.9, cross=0.1)
    result = select_k(gram, range(2, 6), criterion, seed=3, restarts=2)
    assert len(calls) == 1
    monkeypatch.undo()
    # the scores are bit-identical to the public scorers'
    scorer = variance_ratio_criterion if criterion == "vrc" else silhouette_score
    for k, assignment in result.assignments.items():
        assert result.scores[k] == scorer(gram, assignment.labels)


SELECT_K_RUN = """
import sys
import numpy as np
from depcon.clustering import select_k

result = select_k(np.load(sys.argv[1]), range(2, 11), restarts=10, seed=1)
print(result.best_k)
for k, run in sorted(result.assignments.items()):
    print(k, run.labels.tobytes().hex(), run.objective.hex(), result.scores[k].hex(),
          run.iterations, run.repairs, [value.hex() for value in run.objective_trace])
"""


def test_select_k_independent_of_blas_threads(tmp_path):
    # a cluster-select-shaped Gram (n = 600, m = 8): every stacked seeding
    # and Lloyd's product is one restart's shape, so the BLAS thread count
    # cannot change how it rounds
    path = tmp_path / "gram.npy"
    np.save(path, depcon_gram(100))
    source = str(Path(depcon.__file__).parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", SELECT_K_RUN, str(path)], capture_output=True, env=env
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 10


def test_select_k_builds_silhouette_distances_once(monkeypatch):
    calls = []
    original = np.arccos

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "arccos", counted)
    gram, _ = separated_gram([8, 8, 8], within=0.9, cross=0.1)
    result = select_k(gram, range(2, 6), "silhouette", seed=3, restarts=2)
    assert len(calls) == 1
    monkeypatch.undo()
    for k, assignment in result.assignments.items():
        assert result.scores[k] == silhouette_score(gram, assignment.labels)


def test_select_k_range_validation():
    gram, _ = ideal_block_gram([4, 4])
    with pytest.raises(OutOfRangeError):
        select_k(gram, range(2, 20), "vrc")
    with pytest.raises(OutOfRangeError):
        select_k(gram, [3], "unknown-criterion")


# ---------------------------------------------------------------- ARI


def test_ari_identical_and_relabeled():
    labels = np.array([0, 0, 1, 1, 2, 2])
    assert adjusted_rand_index(labels, labels) == 1.0
    assert adjusted_rand_index(labels, (labels + 1) % 3) == 1.0


def test_ari_hand_computed_example():
    a = np.array([0, 0, 0, 1, 1, 1])
    b = np.array([0, 0, 1, 1, 2, 2])
    # contingency [[2,1,0],[0,1,2]]: index 2, expected 1.2, max 4.5 -> 0.8/3.3
    assert adjusted_rand_index(a, b) == pytest.approx(8.0 / 33.0)


def test_ari_against_reference_implementation():
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(8)
    for _ in range(25):
        a = rng.integers(0, 4, 30)
        b = rng.integers(0, 3, 30)
        assert adjusted_rand_index(a, b) == pytest.approx(
            sklearn_metrics.adjusted_rand_score(a, b), abs=1e-12
        )


def test_ari_length_mismatch():
    with pytest.raises(LengthMismatchError):
        adjusted_rand_index([0, 1], [0, 1, 2])


def test_ari_fewer_than_two_items():
    # fewer than two items admit only identical partitions: 1.0, as in scikit-learn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert adjusted_rand_index([], []) == 1.0
        assert adjusted_rand_index([0], [0]) == 1.0
        assert adjusted_rand_index([0], [3]) == 1.0
    with pytest.raises(LengthMismatchError):
        adjusted_rand_index([], [0])


def test_indefinite_gram_objective_may_rise():
    # a signed embedding's cluster mean is a saddle point of its spread, so a
    # pure assignment step may raise the objective there: each run ends by
    # convergence, by the two-step cycle rule or at max_iter, never in an error
    values = np.random.default_rng(0).standard_normal((120, 120))
    gram = (values + values.T) / 2
    gram /= np.abs(gram).max()
    _, s, _ = _factor(gram)
    assert (s < 0).any()
    result = select_k(gram, range(2, 6), restarts=3, seed=1)
    assert all(np.isfinite(score) for score in result.scores.values())
    for seed in range(4):
        assignment = kernel_kmeans(gram, 4, restarts=10, seed=seed)
        assert np.array_equal(np.unique(assignment.labels), np.arange(4))
        assert assignment.iterations <= 100 and np.isfinite(assignment.objective)


def test_objective_rise_on_assignment_step_raises(monkeypatch):
    # the guard is an explicit check, so it also holds under python -O
    from depcon import clustering

    original = clustering._stacked_distances
    calls = []

    def rising(*args):
        calls.append(1)
        return original(*args) + len(calls)  # same argmin, higher objective

    monkeypatch.setattr(clustering, "_stacked_distances", rising)
    gram, _ = separated_gram([6, 6], within=0.9, cross=0.1)
    start = np.repeat([0, 1], 6)
    start[0] = 1  # one point in the wrong cluster, so a second assignment step runs
    with pytest.raises(RuntimeError, match="objective increased"):
        kernel_kmeans(gram, 2, init_labels=start)


@pytest.mark.parametrize(
    "start, error",
    [
        ([0, 5, 1, 1], OutOfRangeError),
        ([0, 1, 1], LengthMismatchError),
        ([0, -1, 1, 1], OutOfRangeError),
        ([0.5, 1, 0, 1], OutOfRangeError),
    ],
)
def test_init_labels_validated(start, error):
    gram = np.eye(4) * 0.5 + 0.5
    with pytest.raises(error):
        kernel_kmeans(gram, 2, init_labels=start)
    with pytest.raises(error):
        lloyd_kmeans(gram, 2, init_labels=start)
