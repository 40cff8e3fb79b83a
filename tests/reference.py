"""Brute-force reference for the kernel, graph-space draws and JSON, Gram-factor
spies, the Gram-sum Variance Ratio Criterion and a one-restart k-means loop, for
tests only.

The kernel reference materializes the full n x n x m distance tensor and
works one sample pair at a time, straight from the definitions, so the fast
paths in ``depcon.kernel`` can be checked against it. Memory is O(n^2 m).
``extended_products`` is the large-n oracle: one sample's product at a time
in extended precision, with O(n m) memory.
The Gram-factor helpers build test Grams of known rank and record or force
the route ``depcon.clustering._factor`` takes: the pivoted Cholesky, or its
``eigh`` fallback. The Variance Ratio Criterion reference reads Gram sums one
cluster at a time, with no factor. The k-means oracles seed and run Lloyd's
steps for one restart at a time, with the same rules and random draws as
the stacked core in ``depcon.clustering``.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from depcon.errors import (
    ConstantFeatureError,
    DegenerateSampleWarning,
    DimensionMismatchError,
)
from depcon import clustering
from depcon.graphs import BidirectedRepresentative, MixedGraph
from depcon.kernel import DEGENERATE_SQ_NORM, gram_matrix, mean_contribution
from depcon.synth import BenchmarkConfig, build_benchmark


@dataclass(frozen=True, eq=False)
class CenteredDistanceTensor:
    """Stacked per-feature distance matrices: raw, doubly-centered, standardized."""

    d: np.ndarray
    c: np.ndarray
    z: np.ndarray
    feature_mean_distance: np.ndarray

    @property
    def n(self) -> int:
        return self.d.shape[0]

    @property
    def m(self) -> int:
        return self.d.shape[2]


def distance_tensor(data) -> CenteredDistanceTensor:
    """The full n x n x m distance tensor (D, C, Z), means taken directly from D."""
    values = np.asarray(data, dtype=np.float64)
    d = np.abs(values[:, None, :] - values[None, :, :])
    row_mean = d.mean(axis=1)
    grand_mean = d.mean(axis=(0, 1))
    for j in np.nonzero(grand_mean <= 0.0)[0]:
        raise ConstantFeatureError(int(j))
    c = d - row_mean[:, None, :] - row_mean[None, :, :] + grand_mean
    z = c / grand_mean
    return CenteredDistanceTensor(d=d, c=c, z=z, feature_mean_distance=grand_mean)


def extended_products(data, rows, standardize=True):
    """``Z_i^T Z_i`` (``C_i^T C_i`` when unstandardized) of the samples ``rows`` in
    ``np.longdouble``, one sample at a time from the definition: O(n m^2) each.
    The row-mean distances come from a sorted prefix sum, so no n x n array is
    built and large n stays cheap."""
    x = np.asarray(data, dtype=np.longdouble)
    n, m = x.shape
    order = np.argsort(x, axis=0, kind="stable")
    ordered = np.take_along_axis(x, order, axis=0)
    prefix = np.vstack([np.zeros((1, m), dtype=np.longdouble), np.cumsum(ordered, axis=0)])
    ranks = np.arange(n, dtype=np.longdouble)[:, None]
    # sum_k |v_r - v_k| for the r-th sorted value v_r
    sums = ordered * (2 * ranks + 1 - n) + prefix[-1] - prefix[:-1] - prefix[1:]
    row_mean = np.empty_like(x)
    np.put_along_axis(row_mean, order, sums / n, axis=0)
    grand_mean = row_mean.mean(axis=0)
    products = []
    for i in rows:
        z = np.abs(x[i] - x) - row_mean[i] - row_mean + grand_mean
        if standardize:
            z /= grand_mean
        products.append(z.T @ z)
    return np.array(products)


def critical_sq_norm(critical: np.ndarray) -> float:
    """Squared Frobenius norm of a critical matrix T: m(m-1) t^2."""
    m = critical.shape[0]
    t = float(critical[0, 1])
    return m * (m - 1) * t * t


def phi_map(tensor: CenteredDistanceTensor, critical: np.ndarray, i: int):
    """Dependence contribution matrix of sample i, ``Z_i^T Z_i - T``, as ``.values``."""
    if critical.shape[0] != tensor.m:
        raise DimensionMismatchError(
            f"critical matrix is {critical.shape[0]}x{critical.shape[0]}, tensor has m={tensor.m}"
        )
    if not (0 <= i < tensor.n):
        raise IndexError(f"sample index {i} outside [0, {tensor.n})")
    slice_i = tensor.z[i]
    return SimpleNamespace(values=slice_i.T @ slice_i - critical, sample_index=i)


def _phi_inner(p_a, p_b, t: np.ndarray) -> float:
    return float(
        np.sum(p_a * p_b) - np.sum(p_a * t) - np.sum(t * p_b) + critical_sq_norm(t)
    )


def _check_pair(tensor_a, tensor_b, critical, i, i_prime):
    if tensor_a.m != tensor_b.m or critical.shape[0] != tensor_a.m:
        raise DimensionMismatchError(
            f"feature counts differ: {tensor_a.m}, {tensor_b.m}, critical {critical.shape[0]}"
        )
    if not (0 <= i < tensor_a.n):
        raise IndexError(f"index {i} outside [0, {tensor_a.n})")
    if not (0 <= i_prime < tensor_b.n):
        raise IndexError(f"index {i_prime} outside [0, {tensor_b.n})")


def gamma_kernel(tensor_a, tensor_b, critical, i, i_prime) -> float:
    """Frobenius inner product of the two samples' contribution matrices."""
    _check_pair(tensor_a, tensor_b, critical, i, i_prime)
    za, zb = tensor_a.z[i], tensor_b.z[i_prime]
    return _phi_inner(za.T @ za, zb.T @ zb, critical)


def gamma_trace_form(tensor_a, tensor_b, critical, i, i_prime) -> float:
    """Alternate expansion using the squared trace inner product of Z slices.

    Differs from :func:`gamma_kernel` for general inputs because
    ``(tr Z_a^T Z_b)^2 != ||Z_a Z_b^T||_F^2``; kept only for comparison.
    """
    _check_pair(tensor_a, tensor_b, critical, i, i_prime)
    za, zb = tensor_a.z[i], tensor_b.z[i_prime]
    if za.shape != zb.shape:
        raise DimensionMismatchError(
            "trace form needs equal sample counts; "
            f"got slices {za.shape} and {zb.shape}"
        )
    first = float(np.sum(za * zb)) ** 2
    return (
        first
        - float(np.sum((za.T @ za) * critical))
        - float(np.sum(critical * (zb.T @ zb)))
        + critical_sq_norm(critical)
    )


def kappa_kernel(tensor_a, tensor_b, critical, i, i_prime) -> float:
    """Cosine-normalized gamma, clamped to [-1, 1]; 0 for degenerate samples."""
    value = gamma_kernel(tensor_a, tensor_b, critical, i, i_prime)
    self_a = max(gamma_kernel(tensor_a, tensor_a, critical, i, i), 0.0)
    self_b = max(gamma_kernel(tensor_b, tensor_b, critical, i_prime, i_prime), 0.0)
    if self_a < DEGENERATE_SQ_NORM or self_b < DEGENERATE_SQ_NORM:
        warnings.warn(
            "sample with (near-)zero contribution norm; kappa set to 0",
            DegenerateSampleWarning,
            stacklevel=2,
        )
        return 0.0
    return float(np.clip(value / math.sqrt(self_a * self_b), -1.0, 1.0))


def printed_sample_set_distance(
    data_a,
    data_b,
    *,
    alpha: float = 0.1,
) -> float:
    """The paper's printed form m^2 - sum(gamma) / (2 n^2), for comparison.

    ``depcon.kernel.sample_set_distance`` uses (m^2 - mean gamma) / 2
    instead, which matches the graph distance on sign matrices.
    """
    values_a = np.asarray(data_a, dtype=np.float64)
    values_b = np.asarray(data_b, dtype=np.float64)
    m = values_a.shape[1]
    mean_a = mean_contribution(values_a, alpha=alpha)
    mean_b = mean_contribution(values_b, alpha=alpha)
    mean_gamma = float(np.sum(mean_a * mean_b))
    n_a, n_b = values_a.shape[0], values_b.shape[0]
    return m * m - (n_a * n_b * mean_gamma) / (2.0 * n_a * n_a)


def random_representative(m, rng):
    """A representative whose off-diagonal pairs are each connected with probability 1/2."""
    conn = rng.random((m, m)) < 0.5
    conn = np.triu(conn, 1)
    return BidirectedRepresentative(m=m, connected=conn | conn.T)


def all_representatives(m):
    """Every representative on m vertices, one per subset of the vertex pairs."""
    pairs = [(j, k) for j in range(m) for k in range(j + 1, m)]
    for bits in itertools.product([False, True], repeat=len(pairs)):
        conn = np.zeros((m, m), dtype=bool)
        for (j, k), bit in zip(pairs, bits):
            conn[j, k] = conn[k, j] = bit
        yield BidirectedRepresentative(m=m, connected=conn)


def graph_to_json(graph: MixedGraph) -> dict:
    """The ``{"vertices": m, "edges": [[j, k, type], ...]}`` form ``graph_from_json`` reads."""
    edges = [[j, k, etype] for (j, k), etype in sorted(graph.edges.items())]
    return {"vertices": graph.m, "edges": edges}


def double_centred(gram):
    """HKH, H = I - 11^T/n."""
    col_means = gram.mean(axis=0)
    return gram - col_means[None, :] - col_means[:, None] + gram.mean()


def rank_one_gram():
    # no mirror-symmetric points: an exact distance tie is broken by rounding,
    # which the two factor routes need not share
    v = np.random.default_rng(11).standard_normal(12)
    return np.outer(v, v)


def rbf_gram(n=40):
    """Gaussian-kernel Gram: positive definite, so HKH has full rank n - 1."""
    points = np.random.default_rng(10).standard_normal((n, 2))
    return np.exp(-((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))


def depcon_gram(samples_per_model=100, seed=20240612):
    """A criterion-10 Gram: n = 6 * samples_per_model, m = 8, so HKH has rank 36."""
    config = BenchmarkConfig(
        num_models=6,
        samples_per_model=samples_per_model,
        num_features=8,
        nonlinear=True,
        seed=seed,
    )
    return gram_matrix(build_benchmark(config).data.values, alpha=0.1).values


def spy_factor_routes(monkeypatch):
    """Record each pivoted Cholesky's outcome and each ``eigh`` call, in order."""
    routes = []
    cholesky, eigh = clustering._pivoted_cholesky, np.linalg.eigh

    def spied_cholesky(*args):
        factor = cholesky(*args)
        routes.append("declined" if factor is None else "cholesky")
        return factor

    def spied_eigh(*args, **kwargs):
        routes.append("eigh")
        return eigh(*args, **kwargs)

    monkeypatch.setattr(clustering, "_pivoted_cholesky", spied_cholesky)
    monkeypatch.setattr(np.linalg, "eigh", spied_eigh)
    return routes


def force_eigh_fallback(monkeypatch):
    """Make the pivoted Cholesky decline, so every factor comes from ``eigh``."""
    monkeypatch.setattr(clustering, "_pivoted_cholesky", lambda centred, tol: None)


def gram_sum_variance_ratio(gram, labels):
    """Calinski-Harabasz index from Gram sums, one cluster at a time.

    within = tr K - sum_c (sum of K over c x c) / n_c and total =
    tr K - (sum of K) / n; between = max(total - within, 0).
    """
    n = gram.shape[0]
    clusters = np.unique(labels)
    k = clusters.size
    trace = float(np.trace(gram))
    within = trace - sum(
        float(gram[np.ix_(labels == c, labels == c)].sum()) / int(np.sum(labels == c))
        for c in clusters
    )
    between = max(trace - float(gram.sum()) / n - within, 0.0)
    if within <= 0.0:
        return math.inf
    return (between / (k - 1)) * ((n - k) / within)


def sq_distances(y, s, norms, centers):
    """Squared distances ``|y_i - c_j|^2_s`` (n x len(centers)); ``norms`` is ``|y_i|^2_s``.

    The product is formed k x n, as ``depcon.clustering`` forms it: OpenBLAS
    rounds the n x k product differently once k is large (from k = 220 at
    n = 240), and the bitwise oracle comparisons must hold at any k.
    """
    signed = centers * s
    return norms[:, None] - 2.0 * (signed @ y.T).T + (centers * signed).sum(axis=1)


def plusplus_seeds(y, s, norms, k, rng):
    """k-means++ seed indices of one restart: each next seed is drawn by
    ``rng.choice`` with probability proportional to its squared distance to
    the nearest seed so far."""
    n = y.shape[0]
    seeds = [int(rng.integers(n))]
    closest = np.inf
    while len(seeds) < k:
        last = seeds[-1]
        closest = np.minimum(closest, sq_distances(y, s, norms, y[last:last + 1])[:, 0])
        weights = np.maximum(closest, 0.0)
        total = weights.sum()
        if total <= 0.0:
            remaining = np.setdiff1d(np.arange(n), seeds)
            seeds.append(int(rng.choice(remaining)))
        else:
            seeds.append(int(rng.choice(n, p=weights / total)))
    return seeds


def seed_labels(y, s, norms, k, rng):
    """One restart's start labels: each point joins its nearest of k k-means++ seed points."""
    seeds = plusplus_seeds(y, s, norms, k, rng)
    return np.argmin(sq_distances(y, s, norms, y[seeds]), axis=1)


def kmeans_single_restart(y, s, k, labels, max_iter):
    """Lloyd's k-means for one start labeling, one step and one restart at a time.

    Coordinates ``y`` under the signed inner product ``s``; the same rules
    as ``depcon.clustering``'s stacked loop (repair of empty clusters, the
    rounding tie rule, the objective-increase check, the stop without
    convergence once the labels return to those of two steps back), so its
    labels, iterations, convergence and repairs must match that loop's exactly.
    """
    n = y.shape[0]
    norms = (y * y) @ s

    def label_distances(labels):
        return sq_distances(y, s, norms, clustering._label_means(y, labels, k))

    labels, repairs = clustering._repair_empty(y, s, np.asarray(labels), k)
    previous = None
    trace = []
    converged = False
    iterations = 0
    dist = label_distances(labels)
    rows = np.arange(n)
    own = dist[rows, labels]
    tol = 1e-12 * float(np.abs(norms).max())
    for iterations in range(1, max_iter + 1):
        nearest = np.argmin(dist, axis=1)
        np.copyto(nearest, labels, where=own - dist[rows, nearest] <= tol)
        new_labels, moves = clustering._repair_empty(y, s, nearest, k)
        repairs += moves
        new_dist = label_distances(new_labels)
        own = new_dist[rows, new_labels]
        objective = float(np.maximum(own, 0.0).sum())
        if trace and not moves and objective > trace[-1] + 1e-9 * max(1.0, abs(trace[-1])):
            raise RuntimeError("k-means objective increased on a pure assignment step")
        trace.append(objective)
        if (new_labels == labels).all():
            converged = True
            break
        if previous is not None and (new_labels == previous).all():
            labels = new_labels
            break
        previous, labels, dist = labels, new_labels, new_dist
    return clustering.ClusterAssignment(
        labels=labels,
        k=k,
        objective=trace[-1],
        iterations=iterations,
        converged=converged,
        objective_trace=tuple(trace),
        repairs=repairs,
    )
