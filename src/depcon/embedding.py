"""Kernel PCA over contribution-kernel Gram matrices.

Takes the top eigenpairs of the double-centred Gram HKH from the factor
kernel k-means also uses (``clustering._factor``). For a pivoted Cholesky
factor L (HKH = L L^T) the thin SVD L = U S V^T gives the eigenvalues S^2
and eigenvectors U, with no n x n eigendecomposition; when the factor
fell back to ``eigh``, its eigenpairs are read directly. Eigenvectors
are scaled by inverse square-root eigenvalues, so projections carry the
component variances. Indefinite Grams are accepted; only eigenvalues
above the rank tolerance become components. Signs are fixed
(largest-magnitude coefficient positive) so outputs are reproducible.
The model scores the training samples only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .clustering import _centred_points, _factor, _gram_values
from .errors import OutOfRangeError, RankDeficientWarning


@dataclass(frozen=True, eq=False)
class KpcaModel:
    """The top d eigenvalues of HKH, largest first, and the n x d
    coefficients: unit eigenvectors over sqrt(eigenvalue)."""

    eigenvalues: np.ndarray
    coefficients: np.ndarray

    @property
    def d(self) -> int:
        return self.coefficients.shape[1]


def kpca_fit(gram, d: int) -> KpcaModel:
    """Fit a d-component kernel PCA model from a square Gram matrix.

    The rank tolerance is 1e-10 times the largest eigenvalue, and at least
    n * eps * max|K|. When fewer than d eigenvalues exceed it, the model is
    truncated to the achievable count with a RankDeficientWarning; when none
    does, OutOfRangeError is raised.
    """
    values = _gram_values(gram)
    n = values.shape[0]
    if not (1 <= d < n):
        raise OutOfRangeError(f"need 1 <= d < n, got d={d}, n={n}")
    y, _, spectrum = _factor(values)
    if spectrum is None:
        # a Cholesky factor: HKH = y y^T, so the thin SVD y = U S V^T gives
        # the eigenpairs (S^2, U), largest first
        eigenvectors, singular, _ = np.linalg.svd(y, full_matrices=False)
        eigenvalues = singular * singular
    else:
        # eigh's columns, ascending, are already eigenvectors times
        # sqrt|lambda|: the positive ones are the last, read in reverse
        eigenvalues = spectrum[::-1][: np.count_nonzero(spectrum > 0)]
        eigenvectors = y[:, ::-1]
    # relative to the spectrum, but never below the Gram's own rounding level:
    # a spectrum that is all rounding noise has no component
    scale = max(values.max(), -values.min())  # max|K| without an n x n temporary
    tol = max(1e-10 * eigenvalues.max(initial=0.0), n * np.finfo(np.float64).eps * scale)
    usable = int(np.sum(eigenvalues > tol))
    if usable == 0:
        raise OutOfRangeError("no eigenvalue of the centred Gram exceeds the rank tolerance")
    if usable < d:
        warnings.warn(
            f"only {usable} of {d} requested components exceed the rank tolerance",
            RankDeficientWarning,
            stacklevel=2,
        )
        d = usable
    eigenvalues = eigenvalues[:d].copy()
    # unit eigenvectors over sqrt(lambda); eigh's columns already carry one
    divisor = np.sqrt(eigenvalues) if spectrum is None else eigenvalues
    coefficients = eigenvectors[:, :d] / divisor[None, :]
    # fix signs: the largest-magnitude coefficient of each component is positive
    flips = np.sign(coefficients[np.argmax(np.abs(coefficients), axis=0), np.arange(d)])
    coefficients = coefficients * flips[None, :]
    return KpcaModel(eigenvalues=eigenvalues, coefficients=coefficients)


def kpca_transform(model: KpcaModel) -> np.ndarray:
    """Training-sample scores, (n, d): HKH v / sqrt(lambda) = v sqrt(lambda)."""
    return model.coefficients * model.eigenvalues


def linear_pca_scores(points, d: int) -> np.ndarray:
    """Classical PCA scores (the coordinate-space baseline for comparisons)."""
    centered = _centred_points(points)
    n, m = centered.shape
    if not (1 <= d <= min(n - 1, m)):
        raise OutOfRangeError(f"need 1 <= d <= min(n-1, m), got d={d}")
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:d]
    flips = np.sign(components[np.arange(d), np.argmax(np.abs(components), axis=1)])
    return centered @ (components * flips[:, None]).T
