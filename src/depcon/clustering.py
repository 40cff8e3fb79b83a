"""Kernel k-means over precomputed Gram matrices, plus selection and scoring.

The kernel algorithms never touch coordinates: distances to implicit
cluster means are expressed through Gram sums. Plain (Lloyd's) k-means and
an explicit-coordinates Calinski-Harabasz are provided as the
coordinate-space counterparts for baselines and cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLabelsError,
    DimensionMismatchError,
    EmptyClusterError,
    KTooLargeError,
    LengthMismatchError,
    NotSquareError,
    OutOfRangeError,
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
    criterion: str


def _gram_values(gram) -> np.ndarray:
    values = gram.values if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise NotSquareError(f"Gram matrix must be square, got shape {values.shape}")
    return values


def _as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _check_init_labels(init_labels, n, k) -> np.ndarray:
    """Starting labels as an array of n integers in [0, k)."""
    labels = np.asarray(init_labels)
    if labels.shape != (n,):
        raise LengthMismatchError(f"expected {n} initial labels, got shape {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise OutOfRangeError(f"initial labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= k:
        raise OutOfRangeError(f"initial labels must lie in [0, {k})")
    return labels


def _cluster_sums(gram, labels, k):
    n = gram.shape[0]
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    counts = onehot.sum(axis=0)
    point_to_cluster = gram @ onehot          # (n, k): sum_{j in c} K_ij
    within = (onehot * point_to_cluster).sum(axis=0)  # (k,): sum_{j,l in c} K_jl
    return onehot, counts, point_to_cluster, within


def _distances_to_means(gram, labels, k):
    _, counts, ptc, within = _cluster_sums(gram, labels, k)
    diag = np.diagonal(gram)
    return diag[:, None] - 2.0 * ptc / counts + within / counts**2, counts, ptc, within


def _center_angles(gram, labels, k):
    """arccos of the cosine between each point and its own cluster mean."""
    _, counts, ptc, within = _cluster_sums(gram, labels, k)
    diag = np.maximum(np.diagonal(gram), 0.0)
    own_dot = ptc[np.arange(gram.shape[0]), labels] / counts[labels]
    own_norm = np.sqrt(np.maximum(within[labels], 0.0)) / counts[labels]
    denom = np.sqrt(diag) * own_norm
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.where(denom > 0, own_dot / denom, 0.0)
    return np.arccos(np.clip(cos, -1.0, 1.0))


def _plusplus_seeds(sq_dist_fn, n, k, rng):
    """k-means++ seed indices given a callable returning squared distances to an index."""
    seeds = [int(rng.integers(n))]
    closest = sq_dist_fn(seeds[0])
    for _ in range(k - 1):
        weights = np.maximum(closest, 0.0)
        total = weights.sum()
        if total <= 0.0:
            remaining = np.setdiff1d(np.arange(n), seeds)
            seeds.append(int(rng.choice(remaining)))
        else:
            seeds.append(int(rng.choice(n, p=weights / total)))
        closest = np.minimum(closest, sq_dist_fn(seeds[-1]))
    return seeds


def _kernel_init(gram, k, init, rng):
    n = gram.shape[0]
    diag = np.diagonal(gram)
    point_sq_dist = lambda j: diag + diag[j] - 2.0 * gram[:, j]
    if init == "random":
        seeds = rng.choice(n, size=k, replace=False)
    elif init == "plusplus":
        seeds = _plusplus_seeds(point_sq_dist, n, k, rng)
    else:
        raise OutOfRangeError(f"unknown init {init!r}")
    dist = np.stack([point_sq_dist(j) for j in seeds], axis=1)
    return np.argmin(dist, axis=1)


def _repair_empty(gram, labels, k, angles_fn):
    """Move the point farthest from its own center into each empty cluster."""
    moves = 0
    for _ in range(gram.shape[0]):
        counts = np.bincount(labels, minlength=k)
        empty = np.nonzero(counts == 0)[0]
        if empty.size == 0:
            return labels, moves
        angles = angles_fn(labels)
        movable = counts[labels] >= 2
        if not movable.any():
            raise EmptyClusterError(f"cannot repopulate cluster {empty[0]}")
        candidate_angles = np.where(movable, angles, -np.inf)
        labels = labels.copy()
        labels[int(np.argmax(candidate_angles))] = empty[0]
        moves += 1
    raise EmptyClusterError("empty-cluster repair did not terminate")


def _kernel_kmeans_once(gram, k, init, max_iter, rng, init_labels=None):
    n = gram.shape[0]
    labels = np.asarray(init_labels) if init_labels is not None else _kernel_init(gram, k, init, rng)
    angles = lambda lab: _center_angles(gram, lab, k)
    labels, repairs = _repair_empty(gram, labels, k, angles)
    trace = []
    converged = False
    iterations = 0
    # distances to the means of the current labels, carried from the last step
    dist, _, _, _ = _distances_to_means(gram, labels, k)
    for iterations in range(1, max_iter + 1):
        new_labels = np.argmin(dist, axis=1)
        new_labels, moves = _repair_empty(gram, new_labels, k, angles)
        repairs += moves
        new_dist, _, _, _ = _distances_to_means(gram, new_labels, k)
        objective = float(
            np.maximum(new_dist[np.arange(n), new_labels], 0.0).sum()
        )
        # reseeding an empty cluster may raise the objective; assignment alone may not
        if trace and not moves and objective > trace[-1] + 1e-9 * max(1.0, abs(trace[-1])):
            raise RuntimeError("kernel k-means objective increased on a pure assignment step")
        trace.append(objective)
        if np.array_equal(new_labels, labels):
            converged = True
            labels = new_labels
            break
        labels, dist = new_labels, new_dist
    return ClusterAssignment(
        labels=labels,
        k=k,
        objective=trace[-1],
        iterations=iterations,
        converged=converged,
        objective_trace=tuple(trace),
        repairs=repairs,
    )


def kernel_kmeans(
    gram,
    k: int,
    *,
    init: str = "plusplus",
    max_iter: int = 100,
    restarts: int = 10,
    seed=0,
    init_labels=None,
) -> ClusterAssignment:
    """Unweighted kernel k-means; best of ``restarts`` runs by objective.

    ``init_labels`` (n integers in [0, k)) bypasses seeding (one run) so a
    run can be compared against coordinate-space k-means from the same start.
    """
    gram = _gram_values(gram)
    n = gram.shape[0]
    if k > n:
        raise KTooLargeError(f"k={k} exceeds sample count {n}")
    if k < 2:
        raise OutOfRangeError(f"need k >= 2, got {k}")
    if init_labels is not None:
        labels = _check_init_labels(init_labels, n, k)
        return _kernel_kmeans_once(gram, k, init, max_iter, None, init_labels=labels)
    best = None
    for child in _as_seed_sequence(seed).spawn(max(1, restarts)):
        result = _kernel_kmeans_once(gram, k, init, max_iter, np.random.default_rng(child))
        if best is None or result.objective < best.objective - 1e-12:
            best = result
    return best


def lloyd_kmeans(
    points,
    k: int,
    *,
    init: str = "plusplus",
    max_iter: int = 100,
    restarts: int = 10,
    seed=0,
    init_labels=None,
) -> ClusterAssignment:
    """Plain coordinate-space k-means with the same conventions as kernel_kmeans."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k > n:
        raise KTooLargeError(f"k={k} exceeds sample count {n}")
    if k < 2:
        raise OutOfRangeError(f"need k >= 2, got {k}")

    def run_once(rng, start_labels=None):
        if start_labels is None:
            sq_dist = lambda j: np.sum((points - points[j]) ** 2, axis=1)
            if init == "random":
                seeds = rng.choice(n, size=k, replace=False)
            elif init == "plusplus":
                seeds = _plusplus_seeds(sq_dist, n, k, rng)
            else:
                raise OutOfRangeError(f"unknown init {init!r}")
            centers = points[np.asarray(seeds)]
            labels = np.argmin(
                ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1
            )
        else:
            labels = np.asarray(start_labels)
        trace = []
        converged = False
        iterations = 0
        repairs = 0
        for iterations in range(1, max_iter + 1):
            counts = np.bincount(labels, minlength=k)
            while (counts == 0).any():
                empty = np.nonzero(counts == 0)[0][0]
                centers = _label_means(points, labels, k, counts)
                residual = np.sum((points - centers[labels]) ** 2, axis=1)
                residual[counts[labels] < 2] = -np.inf
                if not np.isfinite(residual).any():
                    raise EmptyClusterError(f"cannot repopulate cluster {empty}")
                labels = labels.copy()
                labels[int(np.argmax(residual))] = empty
                counts = np.bincount(labels, minlength=k)
                repairs += 1
            centers = _label_means(points, labels, k, counts)
            dist = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = np.argmin(dist, axis=1)
            new_counts = np.bincount(new_labels, minlength=k)
            if (new_counts == 0).any():
                # repair against the distances to the freshly updated means
                for empty in np.nonzero(new_counts == 0)[0]:
                    residual = dist[np.arange(n), new_labels].copy()
                    residual[new_counts[new_labels] < 2] = -np.inf
                    new_labels = new_labels.copy()
                    new_labels[int(np.argmax(residual))] = empty
                    new_counts = np.bincount(new_labels, minlength=k)
                    repairs += 1
            new_centers = _label_means(points, new_labels, k, new_counts)
            objective = float(np.sum((points - new_centers[new_labels]) ** 2))
            trace.append(objective)
            if np.array_equal(new_labels, labels):
                converged = True
                break
            labels = new_labels
        return ClusterAssignment(
            labels=labels,
            k=k,
            objective=trace[-1],
            iterations=iterations,
            converged=converged,
            objective_trace=tuple(trace),
            repairs=repairs,
        )

    if init_labels is not None:
        return run_once(None, start_labels=_check_init_labels(init_labels, n, k))
    best = None
    for child in _as_seed_sequence(seed).spawn(max(1, restarts)):
        result = run_once(np.random.default_rng(child))
        if best is None or result.objective < best.objective - 1e-12:
            best = result
    return best


def _label_means(points, labels, k, counts):
    centers = np.zeros((k, points.shape[1]))
    np.add.at(centers, labels, points)
    return centers / np.maximum(counts, 1)[:, None]


def _check_labels(n, labels):
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise LengthMismatchError(f"expected {n} labels, got shape {labels.shape}")
    k = int(labels.max()) + 1 if labels.size else 0
    counts = np.bincount(labels, minlength=k)
    if k < 2 or (counts == 0).any():
        raise DegenerateLabelsError("need at least 2 clusters, all nonempty")
    return labels, k, counts


def variance_ratio_criterion(gram, labels) -> float:
    """Calinski-Harabasz index computed entirely from Gram sums.

    Between/within dispersions are the implicit feature-space squared
    distances to cluster means and to the global mean.
    """
    gram = _gram_values(gram)
    n = gram.shape[0]
    labels, k, counts = _check_labels(n, labels)
    if k >= n:
        raise DegenerateLabelsError(f"need k < n, got k={k}, n={n}")
    diag_total = float(np.diagonal(gram).sum())
    _, _, _, within_sums = _cluster_sums(gram, labels, k)
    within = diag_total - float((within_sums / counts).sum())
    total = diag_total - float(gram.sum()) / n
    between = max(total - within, 0.0)
    if within <= 0.0:
        return math.inf
    return (between / (k - 1)) * ((n - k) / within)


def calinski_harabasz(points, labels) -> float:
    """Explicit-coordinates Calinski-Harabasz (the plain-k-means counterpart)."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    labels, k, counts = _check_labels(n, labels)
    if k >= n:
        raise DegenerateLabelsError(f"need k < n, got k={k}, n={n}")
    grand = points.mean(axis=0)
    centers = _label_means(points, labels, k, counts)
    within = float(np.sum((points - centers[labels]) ** 2))
    between = float(np.sum(counts[:, None] * (centers - grand) ** 2))
    if within <= 0.0:
        return math.inf
    return (between / (k - 1)) * ((n - k) / within)


def silhouette_from_distances(dist, labels) -> float:
    """Mean silhouette given a full pairwise distance matrix."""
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    labels, k, counts = _check_labels(n, labels)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    cluster_dist = dist @ onehot  # (n, k): total distance to each cluster
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
    gram = _gram_values(gram)
    return silhouette_from_distances(np.arccos(np.clip(gram, -1.0, 1.0)), labels)


def select_k(
    gram,
    k_range,
    criterion: str = "vrc",
    *,
    init: str = "plusplus",
    max_iter: int = 100,
    restarts: int = 10,
    seed=0,
) -> SelectKResult:
    """Run kernel k-means across ``k_range`` and keep the criterion argmax.

    Ties break toward smaller k. The criterion is evaluated in kernel
    space (no coordinates are ever formed).
    """
    gram = _gram_values(gram)
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise OutOfRangeError("empty k range")
    if ks[0] < 2 or ks[-1] >= gram.shape[0]:
        raise OutOfRangeError(f"k range must be within [2, n-1], got {ks[0]}..{ks[-1]}")
    scorer = {"vrc": variance_ratio_criterion, "silhouette": silhouette_score}.get(criterion)
    if scorer is None:
        raise OutOfRangeError(f"unknown criterion {criterion!r}")
    scores = {}
    assignments = {}
    for k, child in zip(ks, _as_seed_sequence(seed).spawn(len(ks))):
        assignment = kernel_kmeans(
            gram, k, init=init, max_iter=max_iter, restarts=restarts, seed=child
        )
        assignments[k] = assignment
        scores[k] = scorer(gram, assignment.labels)
    best_k = ks[0]
    for k in ks[1:]:
        if scores[k] > scores[best_k]:
            best_k = k
    return SelectKResult(best_k=best_k, scores=scores, assignments=assignments, criterion=criterion)


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two partitions of the same items."""
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    if labels_a.shape != labels_b.shape or labels_a.ndim != 1:
        raise LengthMismatchError(
            f"label vectors must share one length, got {labels_a.shape} and {labels_b.shape}"
        )
    n = labels_a.size
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
