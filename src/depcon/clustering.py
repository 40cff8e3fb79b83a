"""Kernel k-means over precomputed Gram matrices, plus selection and scoring.

Kernel k-means is Lloyd's algorithm on any factor of the Gram (Dhillon,
Guan & Kulis, KDD 2004). One factor HKH = y diag(s) y^T of the
double-centred Gram, H = I - 11^T/n (``_factor``), serves ``kernel_kmeans``,
``select_k`` and ``depcon.embedding.kpca_fit``: centring changes no
Gram-sum distance. The factor is a pivoted Cholesky (s = 1) when HKH is
positive semidefinite with rank at most about n/4, as a depcon Gram is
(rank at most m(m+1)/2): O(n^2 r) including the check that accepts it
(Fine & Scheinberg, JMLR 2001; Harbrecht, Peters & Schneider, Appl.
Numer. Math. 2012). Otherwise one symmetric eigendecomposition is used,
keeping each eigenvalue's sign, so an indefinite Gram is clustered in its
pseudo-Euclidean embedding with the distances the Gram sums give. Plain
(Lloyd's) k-means runs the same core on the points with s = 1. All
restarts of one k are seeded together (``_seed_starts``: each k-means++
draw is one stacked product and one draw from each restart's own
generator) and run as one stacked Lloyd's loop (``_lloyd``): each step
finds every restart's means and distances in two stacked products and
drops the restarts that have converged. Means come from ``_means``,
distances to centres (seeds or means) from ``_distances``, residuals to a
point's own mean (repair, VRC) from ``_residuals``; ``_select`` runs and
scores each (k, seed) for ``select_k`` and the CLI's fixed k. The Variance
Ratio Criterion (Calinski-Harabasz) is computed on the factor, as is its
explicit-coordinates baseline; the silhouette from the Gram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import _as_seed_sequence, _check_finite
from .errors import (
    DegenerateLabelsError,
    DimensionMismatchError,
    KTooLargeError,
    LengthMismatchError,
    NonFiniteValueError,
    NotSquareError,
    NotSymmetricError,
    OutOfRangeError,
    TooFewFeaturesError,
)
from .kernel import GramMatrix


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    labels: np.ndarray
    k: int
    objective: float
    iterations: int
    converged: bool
    objective_trace: tuple
    repairs: int = 0


@dataclass(frozen=True, eq=False)
class SelectKResult:
    best_k: int
    scores: dict
    assignments: dict


def _square_values(matrix, what) -> np.ndarray:
    values = np.asarray(matrix, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise NotSquareError(f"{what} must be square, got shape {values.shape}")
    _check_finite(values, what)
    return values


# edge of the square tiles ``_mirror_blocks`` compares: a tile and its mirror
# (288 KiB each) stay in cache. On a 2-vCPU x86-64 VM, comparing a symmetric
# n x n matrix with its transpose took 0.47 / 1.0 / 5.2 / 28 ms at n = 600 /
# 900 / 2000 / 4000, where one ``array_equal(K, K.T)`` took 0.58 / 1.5 / 23 / 146 ms.
_MIRROR_TILE = 192


def _mirror_blocks(values):
    """``(tile, mirrored tile transposed)`` pairs covering a square matrix's
    upper triangle: the matrix is symmetric exactly when every pair is
    equal. No n x n temporary is made."""
    n, b = values.shape[0], _MIRROR_TILE
    for i in range(0, n, b):
        for j in range(i, n, b):
            yield values[i:i + b, j:j + b], values[j:j + b, i:i + b].T


def _gram_values(gram) -> np.ndarray:
    values = _square_values(gram.values if isinstance(gram, GramMatrix) else gram, "Gram matrix")
    if not all(np.array_equal(upper, lower) for upper, lower in _mirror_blocks(values)):
        asymmetry = max(float(np.abs(u - l).max()) for u, l in _mirror_blocks(values))
        scale = max(1.0, float(values.max()), -float(values.min()))
        if asymmetry > values.shape[0] * np.finfo(np.float64).eps * scale:
            raise NotSymmetricError(f"Gram matrix is not symmetric: max |K - K^T| = {asymmetry:.3g}")
    return values


def _centred_points(points) -> np.ndarray:
    """An (n, m) point set, m >= 1, finite, less its mean: the coordinate baselines' input."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise DimensionMismatchError(f"points must be an (n, m) array, got shape {points.shape}")
    if points.shape[1] == 0:
        raise TooFewFeaturesError("points need at least 1 coordinate, got 0")
    _check_finite(points, "points")
    # an empty set has no mean; each caller's own size check rejects it
    return points - points.mean(axis=0) if points.size else points


def _check_labels(n, labels, k=None):
    """``(labels, k, counts)`` for n non-negative integer labels: starting
    labels lie in the given [0, k); labels to score (no ``k``) fill at
    least two clusters, none empty."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise LengthMismatchError(f"expected {n} labels, got shape {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise OutOfRangeError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.size and labels.min() < 0:
        raise OutOfRangeError(f"labels must be non-negative, got {labels.min()}")
    scored = k is None
    if scored:
        k = int(labels.max()) + 1 if labels.size else 0
    elif labels.max() >= k:
        raise OutOfRangeError(f"initial labels must lie in [0, {k})")
    counts = np.bincount(labels, minlength=k)
    if scored and (k < 2 or (counts == 0).any()):
        raise DegenerateLabelsError("need at least 2 clusters, all nonempty")
    return labels, k, counts


# scratch for one row block of the pivoted Cholesky's residual check
_CHECK_BLOCK_BYTES = 2**20


class _Centred:
    """The double-centred Gram HKH = K - 1 c^T - c 1^T + mean(K), c the column
    means of the symmetric K, formed a row block at a time: each entry is
    ((K_ij - c_j) - c_i) + mean(K), in that order."""

    def __init__(self, values):
        self.values = values
        self.col_means = values.mean(axis=0)
        self.mean = values.mean()

    def rows(self, start, stop):
        block = self.values[start:stop] - self.col_means
        block -= self.col_means[start:stop, None]
        block += self.mean
        return block

    def diagonal(self):
        diagonal = np.diagonal(self.values) - self.col_means
        diagonal -= self.col_means
        diagonal += self.mean
        return diagonal


def _pivoted_cholesky(centred, tol):
    """L (n x r) with HKH = L L^T to within ``tol`` entrywise, or None;
    ``centred`` is HKH's ``_Centred``.

    Pivoted (incomplete) Cholesky: each step takes the largest residual
    diagonal as pivot (``argmax`` breaks ties toward the lowest index) and
    stops once no residual diagonal exceeds ``tol``. A positive semidefinite
    matrix of rank r costs O(n r^2) plus O(n^2 r) for the check, which forms
    L L^T - HKH in row blocks of about ``_CHECK_BLOCK_BYTES``. It reads only
    the diagonal, the pivot rows and one row block at a time, so HKH is never
    held whole. None when that check fails (an indefinite matrix: a residual
    with a small diagonal need not be small) or when the rank would pass
    about n/4. The cap bounds the steps thrown away before the ``eigh``
    fallback: measured with one BLAS thread at n = 200..900, n/4 steps cost
    3-11% of an ``eigh`` and n/2 steps 13-24%, while an accepted factor at
    rank n/4 costs 6-14% of one (at rank 3n/4 still 29-57%).
    """
    residual = centred.diagonal()
    n = residual.shape[0]
    cap = (n + 3) // 4
    # row t holds column t of L, so each step reads whole contiguous rows
    rows = np.empty((cap, n))
    rank = 0
    while True:
        pivot = int(np.argmax(residual))
        if residual[pivot] <= tol:
            break
        if rank == cap:
            return None
        column = centred.rows(pivot, pivot + 1)[0] - rows[:rank, pivot] @ rows[:rank]
        column /= math.sqrt(residual[pivot])
        rows[rank] = column
        residual -= column * column
        rank += 1
    factor = rows[:rank].T
    step = max(1, _CHECK_BLOCK_BYTES // (8 * n))
    for start in range(0, n, step):
        error = factor[start:start + step] @ factor.T
        error -= centred.rows(start, start + step)
        if max(error.max(), -error.min()) > tol:
            return None
    return factor


def _factor(values):
    """``(y, s, eigenvalues)``: coordinates ``y`` (n x r) and signs ``s`` with
    ``HKH = y diag(s) y^T``.

    HKH is the double-centred Gram, H = I - 11^T/n: K + a 1^T + 1 a^T leaves
    every Gram-sum distance of k-means unchanged, so HKH serves k-means as
    well as K, and kernel PCA is defined on it. A pivoted Cholesky factor L
    with ``s = 1`` is tried first, to the tolerance n * eps * max|diag HKH|,
    with HKH formed a row block at a time (``_Centred``). When it declines
    (indefinite or nearly full-rank Grams), HKH is formed whole and a
    symmetric eigendecomposition is used instead: components with
    |eigenvalue| at most n * eps * max|eigenvalue| (the
    ``numpy.linalg.matrix_rank`` rule) are dropped, and negative eigenvalues
    keep their sign in ``s``, so an indefinite Gram becomes a
    pseudo-Euclidean embedding in which every Gram-sum distance of kernel
    k-means is reproduced exactly. On that route ``eigenvalues`` holds the
    kept eigenvalues, ascending, and column j of ``y`` is an eigenvector
    scaled by sqrt|eigenvalues[j]|; for a Cholesky factor it is None.
    """
    n = values.shape[0]
    centred = _Centred(values)
    diagonal = centred.diagonal()
    scale = max(diagonal.max(), -diagonal.min())
    factor = _pivoted_cholesky(centred, n * np.finfo(np.float64).eps * scale)
    if factor is not None:
        return factor, np.ones(factor.shape[1]), None
    # eigh reads one triangle, so no symmetrising pass is needed
    eigenvalues, vectors = np.linalg.eigh(centred.rows(0, n))
    size = np.abs(eigenvalues)
    keep = size > n * np.finfo(np.float64).eps * size.max()
    y = vectors[:, keep]
    y *= np.sqrt(size[keep])
    eigenvalues = eigenvalues[keep]
    return y, np.sign(eigenvalues), eigenvalues


def _means(y, onehot, counts):
    """Means (... x k x r) of labelings given as one-hot ``onehot`` (... x n x k)
    with sizes ``counts`` (... x k); an empty cluster's mean is 0. A stacked
    ``matmul`` runs one GEMM of a lone labeling's shape per labeling: one GEMM
    over the stack could be split across BLAS threads, changing its rounding."""
    return np.matmul(onehot.swapaxes(-1, -2), y) / np.maximum(counts, 1)[..., None]


def _label_means(y, labels, k):
    """The k cluster means (k x r) of one labeling."""
    onehot = np.zeros((labels.shape[0], k))
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    return _means(y, onehot, np.bincount(labels, minlength=k))


def _distances(y, s, norms, centers, out=None):
    """Squared distances ``|y_i - c|^2_s`` (... x k x n) of every point to each
    centre in ``centers`` (... x k x r), into ``out`` if given; ``norms`` is
    ``|y_i|^2_s``. One k x n GEMM per stacked entry, as in ``_means``."""
    signed = centers * s
    # |y|^2 - 2 y.c + |c|^2; scaling by -2 is exact, so it can go on the centres
    out = np.matmul(-2.0 * signed, y.T, out=out)
    out += norms
    out += (centers * signed).sum(axis=-1)[..., None]
    return out


def _residuals(y, s, labels, k):
    """Each point's squared distance to its own cluster's mean (n)."""
    return ((y - _label_means(y, labels, k)[labels]) ** 2) @ s


def _repair_empty(y, s, labels, k):
    """Fill each empty cluster with the point farthest from its own cluster mean.

    Only points of clusters with at least two members move, and the means
    are recomputed after every move, so each move empties no cluster. With
    k <= n (``_check_settings``) some cluster has two members while one is
    empty, so every empty cluster is filled.
    """
    moves = 0
    counts = np.bincount(labels, minlength=k)
    while (counts == 0).any():
        residual = _residuals(y, s, labels, k)
        residual[counts[labels] < 2] = -np.inf
        labels = labels.copy()
        labels[int(np.argmax(residual))] = int(np.flatnonzero(counts == 0)[0])
        counts = np.bincount(labels, minlength=k)
        moves += 1
    return labels, moves


def _seed_starts(y, s, norms, k, rngs):
    """Start labels (R x n) of R restarts, one generator each in ``rngs``:
    each point joins its nearest of its restart's k seed points.

    k-means++ (Arthur & Vassilvitskii, SODA 2007) draws each next seed with
    probability proportional to its squared distance to the nearest seed so
    far. Every restart draws at once: one ``_distances`` call gives each
    restart's distance row to its last seed. Each draw then repeats
    ``Generator.choice(n, p=w / w.sum())``: the same probabilities and
    normalised cumulative sums, and one ``random()`` from the restart's own
    generator, whose seed is the count of cumulative sums at or below it
    (``searchsorted(side="right")``, the index ``choice`` returns). So every
    stream and every seed are those of drawing each restart alone. A restart
    whose weights are all zero draws uniformly among the points not yet seeds.
    """
    n = y.shape[0]
    restarts = len(rngs)
    seeds = np.empty((restarts, k), dtype=np.intp)
    seeds[:, 0] = [rng.integers(n) for rng in rngs]
    # squared distance to the nearest seed so far, clipped at 0: the weights
    closest = np.full((restarts, n), np.inf)
    for j in range(1, k):
        dist = _distances(y, s, norms, y[seeds[:, j - 1, None]])[:, 0]
        np.maximum(dist, 0.0, out=dist)
        np.minimum(closest, dist, out=closest)
        totals = closest.sum(axis=1)
        for r in np.flatnonzero(totals <= 0.0):
            remaining = np.setdiff1d(np.arange(n), seeds[r, :j])
            seeds[r, j] = rngs[r].choice(remaining)
        drawn = np.flatnonzero(totals > 0.0)
        cdf = closest[drawn] / totals[drawn, None]
        np.cumsum(cdf, axis=1, out=cdf)
        cdf /= cdf[:, -1:]
        draws = np.array([rngs[r].random() for r in drawn])
        seeds[drawn, j] = (cdf <= draws[:, None]).sum(axis=1)
    dist = _distances(y, s, norms, y[seeds])
    # the first of the nearest seeds, as argmin picks it: it has the largest k - j
    ranks = np.arange(k, 0, -1, dtype=np.intp)[:, None]
    return k - (ranks * (dist == dist.min(axis=1)[:, None, :])).max(axis=1)


def _stacked_counts(y, s, labels, k):
    """``(counts, moves)``: the R x k cluster sizes of R stacked labelings
    (R x n), after ``_repair_empty`` has refilled in place each row with an
    empty cluster, and the repairs made in each row."""
    restarts = labels.shape[0]
    cells = labels + k * np.arange(restarts)[:, None]
    counts = np.bincount(cells.ravel(), minlength=restarts * k).reshape(restarts, k)
    moves = np.zeros(restarts, dtype=np.int64)
    for r in np.flatnonzero((counts == 0).any(axis=1)):
        labels[r], moves[r] = _repair_empty(y, s, labels[r], k)
        counts[r] = np.bincount(labels[r], minlength=k)
    return counts, moves


def _stacked_distances(y, s, norms, indicator, counts, out):
    """Squared distances (R x k x n) of every point to the k means of each of
    R labelings, given as one-hot ``indicator`` (R x n x k) and sizes
    ``counts`` (R x k); ``out``, R x k x n, receives them."""
    return _distances(y, s, norms, _means(y, indicator, counts), out)


def _lloyd(y, s, norms, k, labels, max_iter):
    """Lloyd's k-means from R start labelings (R x n) at once, on coordinates
    ``y`` under the signed inner product ``s`` (``norms`` is ``|y_i|^2_s``);
    one ``ClusterAssignment`` per labeling, in order.

    Each step serves every restart still moving with one
    ``_stacked_distances`` call; a restart leaves once its labels stop
    changing, or unconverged once they return to those of two steps back
    (a step depends on the labels alone, so they would alternate forever).
    The rules of a lone run hold for each restart: empty clusters are
    repaired, and a point changes cluster only for a mean closer by more
    than rounding. Under s = 1 a pure assignment step cannot raise the
    objective, and an error is raised if it does. Under an indefinite ``s``
    (a pseudo-Euclidean embedding) a cluster's mean is a saddle point of its
    spread, not a minimiser, so the objective may rise; such runs end by
    convergence, by the two-step cycle rule or at ``max_iter``.
    """
    restarts, n = labels.shape
    euclidean = bool((s > 0).all())
    # rounding scale of the expanded distances |y|^2 - 2 y.c + |c|^2
    tol = 1e-12 * float(np.abs(norms).max())
    # dist.take((labels + offsets) * n + points) reads dist[r, labels[r, i], i]
    offsets = k * np.arange(restarts)[:, None]
    points = np.arange(n)
    indicator = np.zeros((restarts, n, k))
    buffer = np.empty((restarts, k, n))
    iterations = np.zeros(restarts, dtype=np.int64)
    converged = np.zeros(restarts, dtype=bool)
    traces = [[] for _ in range(restarts)]
    final = np.empty((restarts, n), dtype=np.intp)
    labels = labels.astype(np.intp)
    counts, repairs = _stacked_counts(y, s, labels, k)
    # row a's one-hot labels: 1 at flat index (a * n + i) * k + label; each
    # step moves only the entries of the points that change cluster
    indicator.put(np.arange(restarts * n) * k + labels.ravel(), 1.0)
    # distances to the means of the current labels, carried from the last step
    dist = _stacked_distances(y, s, norms, indicator, counts, buffer)
    own = dist.take((labels + offsets) * n + points)
    active = np.arange(restarts)
    previous = None
    for step in range(1, max_iter + 1):
        size = active.size
        # a point leaves its cluster only for a mean closer by more than
        # rounding; equal means (repeated points) would otherwise swap forever.
        # Few points leave after the first steps, so only they take an argmin.
        leaving = np.flatnonzero(own - dist.min(axis=1) > tol)
        nearest = labels.copy()
        nearest.flat[leaving] = dist[leaving // n, :, leaving % n].argmin(axis=1)
        counts, moves = _stacked_counts(y, s, nearest, k)
        # the points that change cluster, repairs included
        changed = np.flatnonzero(nearest != labels)
        indicator.put(changed * k + labels.flat[changed], 0.0)
        indicator.put(changed * k + nearest.flat[changed], 1.0)
        dist = _stacked_distances(y, s, norms, indicator[:size], counts, buffer[:size])
        own = dist.take((nearest + offsets[:size]) * n + points)
        objectives = np.maximum(own, 0.0).sum(axis=1)
        for a, r in enumerate(active):
            trace, objective = traces[r], float(objectives[a])
            # reseeding an empty cluster may raise the objective; under s = 1
            # assignment alone may not
            if euclidean and trace and not moves[a] and (
                objective > trace[-1] + 1e-9 * max(1.0, abs(trace[-1]))
            ):
                raise RuntimeError("k-means objective increased on a pure assignment step")
            trace.append(objective)
        repairs[active] += moves
        iterations[active] = step
        final[active] = nearest
        moving = np.zeros(size, dtype=bool)
        moving[changed // n] = True
        converged[active[~moving]] = True
        # labels back to those of two steps ago would alternate forever
        if previous is not None:
            moving &= (nearest != previous).any(axis=1)
        if not moving.any():
            break
        if not moving.all():
            active, nearest, dist, own = active[moving], nearest[moving], dist[moving], own[moving]
            labels = labels[moving]
            indicator[:active.size] = indicator[:size][moving]
        previous, labels = labels, nearest
    # each run gets its own labels: a row view would keep all R rows alive
    return [
        ClusterAssignment(
            labels=final[r].copy(),
            k=k,
            objective=traces[r][-1],
            iterations=int(iterations[r]),
            converged=bool(converged[r]),
            objective_trace=tuple(traces[r]),
            repairs=int(repairs[r]),
        )
        for r in range(restarts)
    ]


def _check_settings(n, k, max_iter, restarts, init_labels=None):
    """One k-means run's settings, checked before any factor: the start labels, or None."""
    if k > n:
        raise KTooLargeError(f"k={k} exceeds sample count {n}")
    if k < 2:
        raise OutOfRangeError(f"need k >= 2, got {k}")
    for name, value in (("max_iter", max_iter), ("restarts", restarts)):
        if value < 1:
            raise OutOfRangeError(f"need {name} >= 1, got {value}")
    return None if init_labels is None else _check_labels(n, init_labels, k)[0]


def _best_of_restarts(y, s, k, max_iter, restarts, seed, start=None):
    # a squared distance is at most 4 r max|y|^2, and a restart sums n of them
    largest = float(np.abs(y).max(initial=0.0))
    if not math.isfinite(4.0 * y.size * largest * largest):
        raise NonFiniteValueError("coordinates so large that squared distances overflow float64")
    norms = (y * y) @ s
    if start is not None:
        return _lloyd(y, s, norms, k, start[None, :], max_iter)[0]
    # one generator per restart, spawned in restart order
    rngs = [np.random.default_rng(child) for child in seed.spawn(restarts)]
    best = None
    for result in _lloyd(y, s, norms, k, _seed_starts(y, s, norms, k, rngs), max_iter):
        if best is None or result.objective < best.objective - 1e-12:
            best = result
    return best


def kernel_kmeans(
    gram,
    k: int,
    *,
    max_iter: int = 100,
    restarts: int = 10,
    seed=0,
    init_labels=None,
) -> ClusterAssignment:
    """Unweighted kernel k-means; best of ``restarts`` k-means++ seeded runs by objective.

    ``init_labels`` (n integers in [0, k)) bypasses seeding (one run) so a
    run can be compared against coordinate-space k-means from the same start.
    """
    gram = _gram_values(gram)
    start = _check_settings(gram.shape[0], k, max_iter, restarts, init_labels)
    seed = _as_seed_sequence(seed)
    y, s, _ = _factor(gram)
    return _best_of_restarts(y, s, k, max_iter, restarts, seed, start)


def lloyd_kmeans(
    points,
    k: int,
    *,
    max_iter: int = 100,
    restarts: int = 10,
    seed=0,
    init_labels=None,
) -> ClusterAssignment:
    """Plain coordinate-space k-means with the same rules as kernel_kmeans."""
    # distances depend only on differences; centring keeps the expanded
    # |y|^2 - 2 y.c + |c|^2 from cancelling when the points sit far from 0
    # (kernel k-means needs no such step: the factor of HKH is centred)
    points = _centred_points(points)
    start = _check_settings(points.shape[0], k, max_iter, restarts, init_labels)
    seed = _as_seed_sequence(seed)
    return _best_of_restarts(points, np.ones(points.shape[1]), k, max_iter, restarts, seed, start)


def _calinski_harabasz(y, s, labels, k) -> float:
    """Calinski-Harabasz index of centred coordinates ``y`` under the signed
    inner product ``s``; between is total minus within dispersion, clipped at 0.

    Each point's squared distance, to its own mean (within) or to the centre
    (total), counts as at least 0, as in the k-means objective: under an
    indefinite ``s`` one can be negative. Under s = 1 none is, so nothing is
    clipped."""
    n = y.shape[0]
    if k >= n:
        raise DegenerateLabelsError(f"need k < n, got k={k}, n={n}")
    within = float(np.maximum(_residuals(y, s, labels, k), 0.0).sum())
    total = float(np.maximum((y * y) @ s, 0.0).sum())
    between = max(total - within, 0.0)
    if within <= 0.0:
        return math.inf
    return (between / (k - 1)) * ((n - k) / within)


def variance_ratio_criterion(gram, labels) -> float:
    """Calinski-Harabasz index in kernel feature space.

    Between/within dispersions are the feature-space squared distances to
    the global mean and to cluster means, read from the factor of the
    centred Gram. Each call factors the Gram once (``_factor``: O(n^2 r),
    O(n^3) on its ``eigh`` fallback).
    """
    gram = _gram_values(gram)
    labels, k, _ = _check_labels(gram.shape[0], labels)
    y, s, _ = _factor(gram)
    return _calinski_harabasz(y, s, labels, k)


def calinski_harabasz(points, labels) -> float:
    """Explicit-coordinates Calinski-Harabasz (the plain-k-means counterpart)."""
    centred = _centred_points(points)
    labels, k, _ = _check_labels(centred.shape[0], labels)
    return _calinski_harabasz(centred, np.ones(centred.shape[1]), labels, k)


def silhouette_from_distances(dist, labels) -> float:
    """Mean silhouette given a full pairwise distance matrix.

    Each point's total distance to each cluster is a sum over that cluster's
    columns in a fixed order, not a BLAS product, so the score does not
    depend on the BLAS thread count.
    """
    dist = _square_values(dist, "distance matrix")
    n = dist.shape[0]
    labels, k, counts = _check_labels(n, labels)
    order = np.argsort(labels, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    cluster_dist = np.add.reduceat(dist[:, order], starts, axis=1)  # (n, k)
    own_count = counts[labels]
    own_total = cluster_dist[np.arange(n), labels] - np.diagonal(dist)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(own_count > 1, own_total / np.maximum(own_count - 1, 1), 0.0)
        mean_other = cluster_dist / counts[None, :]
    mean_other[np.arange(n), labels] = np.inf
    b = mean_other.min(axis=1)
    width = np.maximum(a, b)
    s = np.where((own_count > 1) & (width > 0), (b - a) / np.where(width > 0, width, 1.0), 0.0)
    return float(s.mean())


def silhouette_score(gram, labels) -> float:
    """Mean silhouette under the angular kernel distance arccos(kappa)."""
    return silhouette_from_distances(_angles(_gram_values(gram)), labels)


def _angles(gram) -> np.ndarray:
    return np.arccos(np.clip(gram, -1.0, 1.0))


def select_k(
    gram,
    k_range,
    criterion: str = "vrc",
    *,
    max_iter: int = 100,
    restarts: int = 10,
    seed=0,
) -> SelectKResult:
    """Run kernel k-means across ``k_range`` and keep the criterion argmax.

    Ties break toward smaller k. Each k is seeded by its own child of
    ``seed``, spawned in ascending k order.
    """
    gram = _gram_values(gram)
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise OutOfRangeError("empty k range")
    if ks[0] < 2 or ks[-1] >= gram.shape[0]:
        raise OutOfRangeError(f"k range must be within [2, n-1], got {ks[0]}..{ks[-1]}")
    runs = list(zip(ks, _as_seed_sequence(seed).spawn(len(ks))))
    return _select(gram, runs, criterion, max_iter, restarts)


def _select(gram, runs, criterion, max_iter, restarts) -> SelectKResult:
    """Best-of-``restarts`` kernel k-means for each ``(k, seed)`` of ``runs`` on
    checked Gram values, scored by ``criterion``; the best k is the first of
    the top score. The Gram is factored once for all runs, and so is the
    silhouette's angular distance matrix; VRC is evaluated on the factor, and
    needs every k below n."""
    n = gram.shape[0]
    runs = [(k, _as_seed_sequence(seed)) for k, seed in runs]
    for k, _ in runs:
        _check_settings(n, k, max_iter, restarts)
        if criterion == "vrc" and k >= n:  # before any k-means: VRC scores no n clusters
            raise DegenerateLabelsError(f"need k < n, got k={k}, n={n}")
    if criterion == "silhouette":
        distances = _angles(gram)
    elif criterion != "vrc":
        raise OutOfRangeError(f"unknown criterion {criterion!r}")
    y, s, _ = _factor(gram)
    scores = {}
    assignments = {}
    for k, seed in runs:
        assignment = _best_of_restarts(y, s, k, max_iter, restarts, seed)
        assignments[k] = assignment
        if criterion == "vrc":
            scores[k] = _calinski_harabasz(y, s, assignment.labels, k)
        else:
            scores[k] = silhouette_from_distances(distances, assignment.labels)
    # max keeps the first of equal scores
    best_k = max(scores, key=scores.get)
    return SelectKResult(best_k=best_k, scores=scores, assignments=assignments)


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two partitions of the same items.

    Fewer than two items admit only identical partitions, which score 1.0
    (as scikit-learn scores them).
    """
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    if labels_a.shape != labels_b.shape or labels_a.ndim != 1:
        raise LengthMismatchError(
            f"label vectors must share one length, got {labels_a.shape} and {labels_b.shape}"
        )
    n = labels_a.size
    if n < 2:
        return 1.0
    _, inv_a = np.unique(labels_a, return_inverse=True)
    _, inv_b = np.unique(labels_b, return_inverse=True)
    table = np.zeros((inv_a.max() + 1, inv_b.max() + 1), dtype=np.int64)
    np.add.at(table, (inv_a, inv_b), 1)

    def comb2(x):
        x = np.asarray(x, dtype=np.float64)
        return x * (x - 1.0) / 2.0

    index = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(n)
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((index - expected) / (max_index - expected))
