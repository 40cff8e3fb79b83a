"""Independent O(n^2) references the workloads check depcon's outputs against.

Nothing here calls depcon: distances are formed directly, row by row, and
the chi-square critical value comes from the normal quantile.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

BLOCK_ROWS = 256


def chi2_1df_quantile(level):
    """Quantile of chi-square(1) at ``level``: the squared two-sided normal quantile."""
    z = NormalDist().inv_cdf(0.5 + 0.5 * level)
    return z * z


def distance_row_means(values):
    """(n, m) mean of |x_ij - x_kj| over k, formed block by block."""
    n = values.shape[0]
    out = np.empty_like(values)
    for start in range(0, n, BLOCK_ROWS):
        block = np.abs(values[start:start + BLOCK_ROWS, None, :] - values[None, :, :])
        out[start:start + BLOCK_ROWS] = block.mean(axis=1)
    return out


def contribution_matrix(values, row_means, grand_means, i, critical):
    """phi_i = Z_i^T Z_i - T for sample i, from the doubly-centered distances."""
    z = (np.abs(values[i] - values) - row_means[i] - row_means + grand_means) / grand_means
    m = values.shape[1]
    t = np.full((m, m), critical)
    np.fill_diagonal(t, 0.0)
    return z.T @ z - t


def kappa_entries(values, indices, alpha):
    """Kernel values kappa(i, i') for every pair of the given sample indices."""
    row_means = distance_row_means(values)
    grand_means = row_means.mean(axis=0)
    critical = chi2_1df_quantile(1.0 - alpha)
    phis = [contribution_matrix(values, row_means, grand_means, i, critical) for i in indices]
    norms = [math.sqrt(max(float(np.sum(phi * phi)), 0.0)) for phi in phis]
    out = np.zeros((len(indices), len(indices)))
    for a, phi_a in enumerate(phis):
        for b, phi_b in enumerate(phis):
            if norms[a] ** 2 >= 1e-24 and norms[b] ** 2 >= 1e-24:
                out[a, b] = float(np.sum(phi_a * phi_b)) / (norms[a] * norms[b])
    return np.clip(out, -1.0, 1.0)


def aggregate_entry(x, y, alpha):
    """Entry of sum_i(phi_i) for features x, y: n^2 dCov^2 / (mean|dx| mean|dy|) - n T."""
    n = x.shape[0]
    pair = np.stack([x, y], axis=1)
    row_means = distance_row_means(pair)
    grand = row_means.mean(axis=0)
    total = 0.0
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        a = np.abs(x[start:stop, None] - x[None, :]) - row_means[start:stop, :1] - row_means[:, 0] + grand[0]
        b = np.abs(y[start:stop, None] - y[None, :]) - row_means[start:stop, 1:] - row_means[:, 1] + grand[1]
        total += float(np.sum(a * b))
    scaled = total / (grand[0] * grand[1])
    return scaled - n * chi2_1df_quantile(1.0 - alpha), abs(scaled)


def kmeans_objective(gram, labels):
    """Sum over points of the squared feature-space distance to the own cluster mean."""
    total = 0.0
    for c in np.unique(labels):
        members = np.nonzero(labels == c)[0]
        within = gram[np.ix_(members, members)]
        dist = np.diagonal(within) - 2.0 * within.mean(axis=1) + within.mean()
        total += float(np.maximum(dist, 0.0).sum())
    return total


def variance_ratio(gram, labels):
    """Calinski-Harabasz index from Gram sums."""
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


def adjusted_rand(labels_a, labels_b):
    """Adjusted Rand index from a pair-count contingency table."""
    table = {}
    for a, b in zip(labels_a.tolist(), labels_b.tolist()):
        table[(a, b)] = table.get((a, b), 0) + 1
    rows, cols = {}, {}
    for (a, b), count in table.items():
        rows[a] = rows.get(a, 0) + count
        cols[b] = cols.get(b, 0) + count

    def pairs(x):
        return x * (x - 1) / 2.0

    index = sum(pairs(v) for v in table.values())
    sum_a = sum(pairs(v) for v in rows.values())
    sum_b = sum(pairs(v) for v in cols.values())
    expected = sum_a * sum_b / pairs(len(labels_a))
    top = 0.5 * (sum_a + sum_b)
    return 1.0 if top == expected else (index - expected) / (top - expected)


def kpca_residual(gram, coords, eigenvalues):
    """Relative residual of the eigen-equation H K H coords = coords diag(eigenvalues)."""
    col = gram.mean(axis=0)
    centered = gram - col[None, :] - col[:, None] + gram.mean()
    lhs = centered @ coords
    scale = max(float(np.max(np.abs(eigenvalues))), 1e-300) * max(float(np.max(np.abs(coords))), 1e-300)
    return float(np.max(np.abs(lhs - coords * eigenvalues[None, :]))) / scale
