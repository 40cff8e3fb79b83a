"""Distance-covariance contribution map and the sample-similarity kernel.

The central objects, for a dataset ``S`` of n samples by m features:

* per-feature pairwise distance slices ``D``, their doubly-centered
  versions ``C`` and standardized versions ``Z = C / mean(D)``;
* the per-sample contribution matrix ``phi_i = Z_i^T Z_i - T`` where
  ``Z_i`` is the n x m slice for sample i and ``T`` is the critical
  matrix;
* the kernel ``kappa(i, i') = <phi_i, phi_i'>_F / (||phi_i|| ||phi_i'||)``,
  an exact cosine kernel on the unit vectors ``u_i = vec(phi_i) / ||phi_i||``.

Every Gram matrix, over one dataset or across two, is ``U_a U_b^T`` over
those unit vectors, clipped to [-1, 1]; a degenerate sample's vector is 0.
A square Gram's upper triangle comes in bands of ``GRAM_BAND_ROWS`` rows
(``_gram_bands``), mirrored into the lower one, so it is exactly symmetric
and the CLI can stream the same cells to a file without the n x n matrix.
The n x n x m distance tensor is never materialized. With each column in
units of its mean distance, row-mean distances a and alpha = a - 1, sample
i's product is ``Z_i^T Z_i = E_i^T E_i - n alpha_i alpha_i^T`` where
``E_i[k] = |x_i - x_k| - a_k``: the double centring folds into a rank-one
term. Products are built in row blocks of about ``DEFAULT_BLOCK_BYTES``
scratch, each sample's on its own, so results are bit-identical for any
block size and any thread count. ``concurrent.futures`` is imported only
when a build runs more than one worker. Every consumer takes the products
a group of rows at a time from one path (``_product_blocks``), folding each
group into its sums or into the Gram's unit vectors (``_unit_vectors``) as
it is built; only ``contribution_features`` assembles the (n, m, m) stack.
A dataset's standardized sums are built once per process for each critical
matrix: later calls on the same values reuse them (``_feature_sums``).

Each column is first scaled by the power of two that brings its largest
|value| into [1/2, 1). That is exact, kappa and the standardized products
do not see it, and no mean, difference or prefix sum can overflow after
it. Outputs in the data's units are scaled back exactly, and raise
NonFiniteValueError when the true value overflows float64.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .critical import critical_matrix
from .dataset import Dataset, _check_finite, _matrix, _mirror_rows
from .errors import (
    ConstantFeatureError,
    DegenerateSampleWarning,
    DimensionMismatchError,
    NonFiniteValueError,
    OutOfRangeError,
    TooFewFeaturesError,
    TooFewSamplesError,
)

#: Name of the feature builder, recorded in every CLI provenance block.
BACKEND_NAME = "numpy"

#: ||phi||^2 below this counts as a zero direction; kappa is defined as 0 there.
DEGENERATE_SQ_NORM = 1e-24

#: Default size of one row block's scratch (rows x n x m doubles). At n=1500, m=20 (one
#: BLAS thread, 2-vCPU x86-64 VM) a build took 0.20 s with 256 KiB, 0.18 s with 1 MiB,
#: 0.21 s with 4 MiB and 0.37 s with 128 MiB blocks; the size never changes a result bit.
DEFAULT_BLOCK_BYTES = 2**20

#: Rows of one band of a square Gram (``_gram_bands``). Fixed, so the library
#: Gram and the streamed Gram file round every cell the same way.
GRAM_BAND_ROWS = 128

#: Datasets whose sums ``_feature_sums`` keeps, least recently used evicted first.
#: One entry holds 2 m^2 doubles and n mask bytes.
_SUMS_ENTRIES = 8
_sums = {}
_sums_lock = threading.Lock()


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Kernel matrix of kappa values."""

    values: np.ndarray


def _resolve_threads(threads) -> int:
    """``threads``, or 1 when None; below 1 is an error."""
    threads = 1 if threads is None else int(threads)
    if threads < 1:
        raise OutOfRangeError(f"need at least 1 thread, got {threads}")
    return threads


def _values(data) -> np.ndarray:
    """A Dataset's values, or a finite 2-D array with at least two rows and one column."""
    if isinstance(data, Dataset):
        return data.values
    values = _check_finite(_matrix(data), "dataset")
    if values.shape[0] < 2:
        raise TooFewSamplesError(f"need at least 2 samples, got {values.shape[0]}")
    if values.shape[1] == 0:
        raise TooFewFeaturesError("need at least 1 feature, got 0")
    return values


def _unit_columns(values):
    """``(values * 2^-e, e)``: each column scaled by the power of two 2^-e that
    brings its largest |value| into [1/2, 1), exactly (``np.frexp`` cannot
    overflow), and ``values`` itself when every e is 0."""
    top = np.maximum(values.max(axis=0), -values.min(axis=0))
    exponents = np.frexp(top)[1]
    return (np.ldexp(values, -exponents) if exponents.any() else values), exponents


def _scaled_back(scaled, exponents):
    """``scaled * 2^exponents`` in place, exact; NonFiniteValueError when it overflows."""
    with np.errstate(over="ignore"):  # reported as the typed error below
        np.ldexp(scaled, exponents, out=scaled)
    if not np.isfinite(scaled).all():
        raise NonFiniteValueError(
            "a result in the data's units overflows float64 (kappa and the test statistics do not)"
        )
    return scaled


def distance_moments(values: np.ndarray):
    """Row means and grand mean of each per-feature distance matrix.

    Uses the sorted prefix-sum identity, O(n log n) per feature, so no
    n x n matrix is formed. Raises ConstantFeatureError when a feature's
    grand mean distance would be zero. Computed on the power-of-two scaled
    columns of ``_unit_columns`` and scaled back exactly.
    """
    values, exponents = _unit_columns(_values(values))
    n, m = values.shape
    spread = values.max(axis=0) - values.min(axis=0)
    for j in np.nonzero(spread <= 0.0)[0]:
        raise ConstantFeatureError(int(j))
    # distances ignore a shift; centring keeps the prefix sums of a column
    # far from 0 (offsets near 1e10) from swamping its differences
    values = values - values.mean(axis=0)
    order = np.argsort(values, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(values, order, axis=0)
    prefix = np.vstack([np.zeros((1, m)), np.cumsum(sorted_vals, axis=0)])
    total = prefix[-1]
    ranks = np.arange(n, dtype=np.float64)[:, None]
    # sum_k |v_r - v_k| for the r-th sorted value
    sums = sorted_vals * (2.0 * ranks + 1.0 - n) + total - prefix[:-1] - prefix[1:]
    row_sums = np.empty_like(values)
    np.put_along_axis(row_sums, order, sums, axis=0)
    row_mean = row_sums / n
    grand_mean = row_mean.mean(axis=0)
    return _scaled_back(row_mean, exponents), _scaled_back(grand_mean, exponents)


def _scaled_columns(values):
    """``(x, a, grand_mean, e)``: the centred columns and the row-mean distances,
    both in units of each column's mean distance, and that mean distance of
    each column scaled by 2^-e (``_unit_columns``)."""
    values, exponents = _unit_columns(values)
    # through the public function, which the benchmark tracer times; on scaled
    # columns its own exponents are all 0, so it scales nothing
    a, grand_mean = distance_moments(values)
    x = values - values.mean(axis=0)  # centred before scaling: exact for offsets near 1e10
    x /= grand_mean
    a /= grand_mean
    return x, a, grand_mean, exponents


def _product_block(x, a, start, stop, out):
    """Fill ``out`` (stop - start, m, m) with Z_i^T Z_i = E_i^T E_i - n alpha_i alpha_i^T
    for the rows i in [start, stop)."""
    n = x.shape[0]
    e = x[start:stop, None, :] - x[None, :, :]
    np.abs(e, out=e)
    e -= a
    np.matmul(e.transpose(0, 2, 1), e, out=out)
    alpha = a[start:stop] - 1.0
    out -= n * (alpha[:, :, None] * alpha[:, None, :])  # not (n alpha) alpha^T: stays symmetric
    # that cancels log2(n alpha_j^2 / (Z^T Z)_jj) bits; past 4 (heavy tails), use Z_i itself
    redo = np.flatnonzero((n * alpha * alpha > 16.0 * np.einsum("ijj->ij", out)).any(axis=1))
    if redo.size:
        z = e[redo] - alpha[redo, None, :]
        out[redo] = np.matmul(z.transpose(0, 2, 1), z)


def _product_blocks(x, a, threads):
    """``(start, group)``: the products Z_i^T Z_i of consecutive row groups, in order.

    Each ``_product_block`` call builds one block of rows with about
    ``DEFAULT_BLOCK_BYTES`` of scratch, and a group is as many blocks as
    fill about ``DEFAULT_BLOCK_BYTES / 16`` of products, built into one
    buffer per worker that is valid until the next group is asked for.
    Workers (``min(threads, groups, CPUs)``) build one group each at a
    time, so at most one group per worker is live.
    """
    n, m = x.shape
    step = max(1, min(n, DEFAULT_BLOCK_BYTES // max(n * m * 8, 1)))
    # a block's products take m / n of its scratch, so a caller folding one
    # block at a time paid about 9% of structure_difference_score at n = 1500,
    # m = 20 in per-block overhead, and two workers handed one-row blocks at
    # n = 8000, m = 10 were 42% slower than one; groups make that 5-10 times rarer
    per_group = max(1, DEFAULT_BLOCK_BYTES // 16 // (step * m * m * 8))
    rows = step * per_group
    spans = [(start, min(start + rows, n)) for start in range(0, n, rows)]
    workers = min(threads, len(spans), os.cpu_count() or 1)
    scratch = np.empty((workers, rows, m, m))

    def build(job):
        slot, (start, stop) = job
        group = scratch[slot, : stop - start]
        for first in range(start, stop, step):
            last = min(first + step, stop)
            _product_block(x, a, first, last, group[first - start:last - start])
        return start, group

    if workers == 1:
        for span in spans:
            yield build((0, span))
        return
    # imported here: concurrent.futures loads logging, about 0.65 MB and 5 ms
    # that no one-thread build needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for first in range(0, len(spans), workers):
            yield from list(pool.map(build, enumerate(spans[first:first + workers])))


def contribution_features(data, standardize=True, threads=None) -> np.ndarray:
    """(n, m, m) stack of per-sample products Z_i^T Z_i (C_i^T C_i when unstandardized).

    The only builder of the stack, from the groups of ``_product_blocks``.
    C_i^T C_i is that times the outer product of the mean distances, scaled
    back exactly to the data's units (NonFiniteValueError if that
    overflows). Each sample's product is computed on its own, so results
    are bit-identical for any block size and any number of workers.
    """
    threads = _resolve_threads(threads)
    values = _values(data)
    n, m = values.shape
    x, a, grand_mean, exponents = _scaled_columns(values)
    out = np.empty((n, m, m), dtype=np.float64)
    for start, group in _product_blocks(x, a, threads):
        out[start:start + len(group)] = group
    if not standardize:
        out *= np.outer(grand_mean, grand_mean)
        _scaled_back(out, exponents[:, None] + exponents[None, :])
    return out


def _fold(total, rows):
    """``total`` plus each of ``rows`` in order; the sum of ``rows`` when ``total`` is None.

    NumPy sums an (n, ...) stack over axis 0 one row after another when a row
    holds at least two values, so folding its row blocks in order this way
    gives ``stack.sum(axis=0)`` bit for bit.
    """
    if total is not None:
        rows = np.concatenate((total[None], rows))
    return rows.sum(axis=0)


def _blake2b(data=b""):
    """A BLAKE2b hasher fed ``data``. hashlib's blake2b is this one; importing
    hashlib itself would map OpenSSL (3.6 MB)."""
    try:
        from _blake2 import blake2b
    except ImportError:
        from hashlib import blake2b
    return blake2b(data)


def _feature_sums(values, threads, critical):
    """``(sum_i Z_i^T Z_i, sum_i u_i, degenerate-sample mask)`` of ``values``
    with ``critical``, built once per dataset and critical matrix. Each
    product group is folded as soon as it is built (``_fold``), so both sums
    equal the ``sum(axis=0)`` of the stack and of its unit vectors bit for
    bit when m >= 2, and no stack is held.

    The sums are kept, read-only, under the shape and a digest of the
    (C-contiguous float64) values and the critical values, which fold in
    alpha and m. So a changed cell is a new dataset, and
    another shape with the same bytes is too. The thread count and the block
    size stay out of the key: they change no result bit. The threads are
    checked before the lookup, so a bad count fails on a kept dataset too.
    """
    threads = _resolve_threads(threads)
    key = (values.shape, _blake2b(values).digest(), critical.tobytes())
    with _sums_lock:
        sums = _sums.pop(key, None)
        if sums is not None:
            _sums[key] = sums
            return sums
    total = units = None
    degenerate = []
    for _, group in _product_blocks(*_scaled_columns(values)[:2], threads):
        total = _fold(total, group)
        phi, zero = _unit_rows(group, critical)
        units = _fold(units, phi)
        degenerate.append(zero)
    sums = total, units, np.concatenate(degenerate)
    for array in sums:
        array.flags.writeable = False
    with _sums_lock:
        _sums[key] = sums
        while len(_sums) > _SUMS_ENTRIES:
            del _sums[next(iter(_sums))]
    return sums


def distance_cov_matrix(data) -> np.ndarray:
    """m x m matrix of squared sample distance covariances, (1/n^2) L^T L.

    Computed on the power-of-two scaled columns and scaled back exactly;
    NonFiniteValueError when a true covariance overflows float64.
    """
    values = _values(data)
    n = values.shape[0]
    x, a, grand_mean, exponents = _scaled_columns(values)
    scale = np.outer(grand_mean, grand_mean)
    total = None
    for _, group in _product_blocks(x, a, 1):
        group *= scale  # before the fold, so the total is the scaled stack's sum
        total = _fold(total, group)
    return _scaled_back(np.maximum(total / (n * n), 0.0), exponents[:, None] + exponents[None, :])


def _check_same_features(values_a, values_b):
    """DimensionMismatchError unless two datasets' values have one feature count."""
    m, m_b = values_a.shape[1], values_b.shape[1]
    if m != m_b:
        raise DimensionMismatchError(f"feature counts differ: {m} vs {m_b}")


def gram_matrix(
    data_a,
    data_b=None,
    *,
    alpha: float = 0.1,
    threads=None,
) -> GramMatrix:
    """Kernel matrix of kappa values over one dataset or across two.

    The square single-dataset Gram is exactly symmetric with unit diagonal
    up to rounding (0 on degenerate samples); the cross case is n x n'.
    """
    values_a = _values(data_a)
    if data_b is None:
        return _gram_from_units(_unit_vectors(values_a, alpha, threads))
    values_b = _values(data_b)
    _check_same_features(values_a, values_b)
    u_a = _unit_vectors(values_a, alpha, threads)
    return _gram_from_units(u_a, _unit_vectors(values_b, alpha, threads))


def _unit_rows(feats, critical):
    """``(rows vec(phi_i) / ||phi_i||, degenerate mask)``; a degenerate sample's row is 0."""
    n = feats.shape[0]
    phi = feats.reshape(n, -1) - critical.reshape(-1)
    sq_norms = np.einsum("ij,ij->i", phi, phi)
    degenerate = sq_norms < DEGENERATE_SQ_NORM
    with np.errstate(divide="ignore", invalid="ignore"):
        phi /= np.sqrt(sq_norms)[:, None]
    phi[degenerate] = 0.0
    return phi, degenerate


def _warn_degenerate(degenerate, stacklevel):
    """Name the samples the mask ``degenerate`` flags, if any, in one warning;
    ``stacklevel`` counts from the caller, as ``warnings.warn``'s does."""
    index = np.flatnonzero(degenerate)
    if index.size:
        shown = ", ".join(str(i) for i in index[:10]) + (", ..." if index.size > 10 else "")
        warnings.warn(
            f"{index.size} of {degenerate.size} samples have (near-)zero contribution norm; "
            f"their kernel rows are set to 0: {shown}",
            DegenerateSampleWarning,
            stacklevel=stacklevel + 1,
        )


def _unit_vectors(data, alpha, threads=None):
    """One dataset's (n, m^2) rows ``vec(phi_i) / ||phi_i||``, 0 for degenerate samples,
    named in one warning at the caller's caller. Each product group goes through
    ``_unit_rows`` as it is built, so no stack is held; every row equals that
    of ``_unit_rows(contribution_features(data), critical)`` bit for bit."""
    threads = _resolve_threads(threads)
    values = _values(data)
    critical = critical_matrix(values.shape[1], alpha)
    u = np.empty((values.shape[0], critical.size))
    degenerate = np.empty(values.shape[0], dtype=bool)
    for start, group in _product_blocks(*_scaled_columns(values)[:2], threads):
        stop = start + len(group)
        u[start:stop], degenerate[start:stop] = _unit_rows(group, critical)
    _warn_degenerate(degenerate, stacklevel=3)
    return u


def _gram_bands(u, out=None):
    """``(start, clip(U[start:stop] U[start:]^T))`` for consecutive bands of
    ``GRAM_BAND_ROWS`` rows: each band holds its rows' cells from the diagonal
    on, so the bands cover the square Gram's upper triangle. Only that
    triangle of a band's first ``stop - start`` columns is the Gram's: its
    lower one is the mirror's, which a band product need not round alike.
    Given an n x n ``out``, each band is its view ``out[start:stop, start:]``
    (BLAS writes a strided output without a copy, and rounds it alike)."""
    n = u.shape[0]
    for start in range(0, n, GRAM_BAND_ROWS):
        stop = start + GRAM_BAND_ROWS
        view = None if out is None else out[start:stop, start:]
        band = np.matmul(u[start:stop], u[start:].T, out=view)
        np.clip(band, -1.0, 1.0, out=band)
        yield start, band


def _gram_from_units(u_a, u_b=None) -> GramMatrix:
    """Kappa Gram ``U_a U_b^T`` of unit vectors: square over one set, n x n' across two."""
    if u_b is not None:
        kappa = u_a @ u_b.T
        np.clip(kappa, -1.0, 1.0, out=kappa)
        return GramMatrix(values=kappa)
    n = u_a.shape[0]
    kappa = np.empty((n, n))
    for start, band in _gram_bands(u_a, out=kappa):
        _mirror_rows(kappa, start, start + band.shape[0])
    return GramMatrix(values=kappa)


def mean_contribution(
    data,
    *,
    alpha: float = 0.1,
    threads=None,
) -> np.ndarray:
    """Mean of the contribution matrices over all samples: mean_i(phi_i)."""
    values = _values(data)
    critical = critical_matrix(values.shape[1], alpha)
    # feats.mean(axis=0) divides the same sum by n
    return _feature_sums(values, threads, critical)[0] / values.shape[0] - critical


def contribution_mean_distance(mean_a: np.ndarray, mean_b: np.ndarray) -> float:
    """(m^2 - <A, B>_F) / 2 for two mean contribution matrices.

    When both means are +/-1 sign matrices this equals the ordered
    disagreement count, i.e. the graph distance of their preimages.
    """
    mean_a = np.asarray(mean_a, dtype=np.float64)
    mean_b = np.asarray(mean_b, dtype=np.float64)
    if mean_a.shape != mean_b.shape or mean_a.ndim != 2 or mean_a.shape[0] != mean_a.shape[1]:
        raise DimensionMismatchError(
            f"mean matrices must share a square shape, got {mean_a.shape} and {mean_b.shape}"
        )
    m = mean_a.shape[0]
    return 0.5 * (m * m - float(np.sum(mean_a * mean_b)))


def sample_set_distance(
    data_a,
    data_b,
    *,
    alpha: float = 0.1,
    threads=None,
) -> float:
    """Distance between two sample sets in contribution space.

    (m^2 - mean_{i,i'} gamma) / 2, which matches the graph distance exactly
    when both mean contribution matrices are sign matrices.
    """
    _check_same_features(_values(data_a), _values(data_b))
    mean_a = mean_contribution(data_a, alpha=alpha, threads=threads)
    mean_b = mean_contribution(data_b, alpha=alpha, threads=threads)
    return contribution_mean_distance(mean_a, mean_b)
