import concurrent.futures
import math
import warnings
from functools import partial

import numpy as np
import pytest

import depcon.kernel
from depcon.cli import (
    _csv_outputs,
    _matrix_rows,
    _one_blas_thread,
    _publish,
    main,
)
from depcon.critical import chi2_quantile_1df, critical_matrix
from depcon.dataset import Dataset, _load_gram
from depcon.errors import (
    ConstantFeatureError,
    DegenerateSampleWarning,
    DimensionMismatchError,
    NonFiniteValueError,
    OutOfRangeError,
    TooFewFeaturesError,
    TooFewSamplesError,
)
from depcon.inference import aggregate_statistic, independence_test, structure_difference_score
from depcon.kernel import (
    _gram_from_units,
    _resolve_threads,
    _unit_rows,
    _warn_degenerate,
    contribution_features,
    contribution_mean_distance,
    distance_cov_matrix,
    distance_moments,
    gram_matrix,
    mean_contribution,
    sample_set_distance,
)
from reference import (
    CenteredDistanceTensor,
    critical_sq_norm,
    distance_tensor,
    gamma_kernel,
    gamma_trace_form,
    kappa_kernel,
    phi_map,
    printed_sample_set_distance,
)


def random_dataset(rng, n, m, scale=1.0):
    return rng.standard_normal((n, m)) * scale


# ---------------------------------------------------------------- tensor


def test_distance_tensor_hand_example():
    # feature column (0, 1, 3): D, C, Z evaluated by hand
    t = distance_tensor(np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 6.0]]))
    assert np.array_equal(t.d[:, :, 0], [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    assert t.feature_mean_distance[0] == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert np.allclose(t.c[0, :, 0], [-4.0 / 3.0, 0.0, 4.0 / 3.0], atol=1e-15)
    assert np.allclose(t.z[0, :, 0], [-1.0, 0.0, 1.0], atol=1e-15)


def test_constant_feature_rejected():
    data = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    with pytest.raises(ConstantFeatureError) as err:
        distance_tensor(data)
    assert err.value.feature == 1


def test_translation_invariance():
    rng = np.random.default_rng(11)
    x = random_dataset(rng, 25, 3)
    a = distance_tensor(x)
    b = distance_tensor(x + np.array([10.0, -3.0, 0.25]))
    assert np.allclose(a.d, b.d, atol=1e-9)
    assert np.allclose(a.c, b.c, atol=1e-9)
    assert np.allclose(a.z, b.z, atol=1e-9)


def test_slice_properties():
    rng = np.random.default_rng(5)
    x = random_dataset(rng, 40, 4)
    t = distance_tensor(x)
    n = 40
    for j in range(4):
        d = t.d[:, :, j]
        assert np.array_equal(d, d.T)
        assert (d >= 0).all() and np.allclose(np.diagonal(d), 0)
        c = t.c[:, :, j]
        assert np.abs(c.sum(axis=0)).max() < 1e-9 * n
        assert np.abs(c.sum(axis=1)).max() < 1e-9 * n
        assert np.allclose(t.z[:, :, j], c / t.feature_mean_distance[j])
        assert t.feature_mean_distance[j] > 0


def test_distance_moments_match_materialized_tensor():
    rng = np.random.default_rng(17)
    x = random_dataset(rng, 30, 3)
    row_mean, grand_mean = distance_moments(x)
    d = np.abs(x[:, None, :] - x[None, :, :])
    assert np.allclose(row_mean, d.mean(axis=1), atol=1e-12)
    assert np.allclose(grand_mean, d.mean(axis=(0, 1)), atol=1e-12)


# ---------------------------------------------------------------- phi map


def test_phi_reduces_to_distance_cov():
    # zero critical matrix + unstandardized slices: (1/n^2) sum_i phi == dcov matrix
    rng = np.random.default_rng(23)
    for _ in range(5):
        n, m = int(rng.integers(5, 50)), int(rng.integers(2, 8))
        x = random_dataset(rng, n, m)
        feats = contribution_features(x, standardize=False)
        lhs = feats.sum(axis=0) / (n * n)
        assert np.abs(lhs - distance_cov_matrix(x)).max() < 1e-10


def test_phi_duplicated_feature():
    rng = np.random.default_rng(3)
    col = rng.standard_normal(12)
    x = np.column_stack([col, col])
    tensor = distance_tensor(x)
    critical = critical_matrix(2, 0.1)
    phi = phi_map(tensor, critical, 4)
    assert phi.values[0, 1] == pytest.approx(phi.values[0, 0] - critical[0, 1], abs=1e-12)
    assert np.abs(phi.values - phi.values.T).max() < 1e-12
    assert (np.diagonal(phi.values) >= 0).all()


def test_phi_sum_matches_double_sum_oracle():
    x = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 6.0]])
    tensor = distance_tensor(x)
    critical = critical_matrix(2, 0.1)
    total = sum(phi_map(tensor, critical, i).values[0, 1] for i in range(3))
    oracle = 0.0  # explicit double sum over the standardized tensor
    for i in range(3):
        for k in range(3):
            oracle += tensor.z[i, k, 0] * tensor.z[i, k, 1]
    assert total == pytest.approx(oracle - 3 * critical[0, 1], abs=1e-12)


def test_phi_index_errors():
    tensor = distance_tensor(np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 5.0]]))
    critical = critical_matrix(2, 0.1)
    with pytest.raises(IndexError):
        phi_map(tensor, critical, 3)
    with pytest.raises(DimensionMismatchError):
        phi_map(tensor, critical_matrix(3, 0.1), 0)


# ---------------------------------------------------------------- dcov matrix


def test_dcov_matches_flattened_oracle():
    rng = np.random.default_rng(29)
    for _ in range(5):
        n, m = int(rng.integers(5, 50)), int(rng.integers(2, 8))
        x = random_dataset(rng, n, m)
        flattened = distance_tensor(x).c.reshape(n * n, m)
        oracle = flattened.T @ flattened / (n * n)
        assert np.abs(distance_cov_matrix(x) - oracle).max() < 1e-10


def test_dcov_diagonal_nonnegative_and_independent_offdiag_small():
    rng = np.random.default_rng(31)
    x = random_dataset(rng, 2000, 2)
    dc = distance_cov_matrix(x)
    assert (np.diagonal(dc) >= 0).all()
    assert abs(dc[0, 1]) < 0.01


# ---------------------------------------------------------------- gamma / kappa


def test_gamma_self_nonnegative_without_critical():
    rng = np.random.default_rng(37)
    x = random_dataset(rng, 15, 4)
    tensor = distance_tensor(x)
    critical = critical_matrix(4, 1.0 - 1e-12)  # ~zero offsets
    for i in range(5):
        assert gamma_kernel(tensor, tensor, critical, i, i) >= -1e-12


def test_gamma_trace_rearrangement_identity():
    # ||Z_a Z_b^T||_F^2 equals <Z_a^T Z_a, Z_b^T Z_b>_F
    rng = np.random.default_rng(41)
    for _ in range(6):
        n, m = int(rng.integers(4, 20)), int(rng.integers(2, 6))
        x = random_dataset(rng, n, m)
        tensor = distance_tensor(x)
        za, zb = tensor.z[0], tensor.z[1]
        direct = np.sum((za @ zb.T) ** 2)
        via_products = np.sum((za.T @ za) * (zb.T @ zb))
        assert direct == pytest.approx(via_products, rel=1e-9)


def test_gamma_sesquilinearity():
    rng = np.random.default_rng(43)
    x = random_dataset(rng, 18, 3)
    tensor = distance_tensor(x)
    critical = critical_matrix(3, 0.1)
    total = sum(
        gamma_kernel(tensor, tensor, critical, i, i2) for i in range(18) for i2 in range(18)
    )
    mean_phi = mean_contribution(x, alpha=0.1)
    assert total / 18**2 == pytest.approx(float(np.sum(mean_phi * mean_phi)), rel=1e-8)


def test_gamma_trace_form_differs_in_general():
    # the squared-trace expansion is not the Frobenius inner product
    rng = np.random.default_rng(47)
    x = random_dataset(rng, 12, 3)
    tensor = distance_tensor(x)
    critical = critical_matrix(3, 0.1)
    frobenius = gamma_kernel(tensor, tensor, critical, 0, 1)
    trace_sq = gamma_trace_form(tensor, tensor, critical, 0, 1)
    assert abs(frobenius - trace_sq) > 1e-6
    # but they agree on the self pair up to the definition of the first term
    za = tensor.z[0]
    assert gamma_trace_form(tensor, tensor, critical, 0, 0) == pytest.approx(
        np.sum(za * za) ** 2
        - 2 * np.sum((za.T @ za) * critical)
        + critical_sq_norm(critical),
        rel=1e-12,
    )


def test_kappa_self_is_one():
    rng = np.random.default_rng(53)
    x = random_dataset(rng, 20, 3)
    tensor = distance_tensor(x)
    critical = critical_matrix(3, 0.1)
    for i in (0, 7, 19):
        assert kappa_kernel(tensor, tensor, critical, i, i) == pytest.approx(1.0, abs=1e-12)


def test_kappa_affine_invariance():
    rng = np.random.default_rng(59)
    x = random_dataset(rng, 24, 3)
    scale = np.array([2.5, 0.3, 7.0])
    shift = np.array([-4.0, 1.0, 100.0])
    ta, tb = distance_tensor(x), distance_tensor(x * scale + shift)
    critical = critical_matrix(3, 0.1)
    for i, i2 in ((0, 1), (5, 17), (23, 2)):
        assert kappa_kernel(ta, ta, critical, i, i2) == pytest.approx(
            kappa_kernel(tb, tb, critical, i, i2), abs=1e-9
        )


def test_kappa_feature_permutation_invariance():
    rng = np.random.default_rng(61)
    x = random_dataset(rng, 16, 4)
    perm = [2, 0, 3, 1]
    ta, tb = distance_tensor(x), distance_tensor(x[:, perm])
    critical = critical_matrix(4, 0.1)
    for i, i2 in ((0, 3), (4, 4), (15, 1)):
        assert kappa_kernel(ta, ta, critical, i, i2) == pytest.approx(
            kappa_kernel(tb, tb, critical, i, i2), abs=1e-12
        )


def test_kappa_degenerate_sample_returns_zero_with_warning():
    z = np.zeros((3, 3, 2))
    z[1:] = np.arange(12).reshape(2, 3, 2) + 1.0  # sample 0 has an all-zero slice
    tensor = CenteredDistanceTensor(d=z, c=z, z=z, feature_mean_distance=np.ones(2))
    critical = critical_matrix(2, 1.0 - 1e-12)
    with pytest.warns(DegenerateSampleWarning):
        assert kappa_kernel(tensor, tensor, critical, 0, 1) == 0.0


# ---------------------------------------------------------------- gram


def test_gram_unit_diagonal_symmetric_bounded():
    rng = np.random.default_rng(67)
    x = random_dataset(rng, 60, 5)
    gram = gram_matrix(x)
    assert np.allclose(np.diagonal(gram.values), 1.0, atol=1e-12)
    assert np.abs(gram.values - gram.values.T).max() == 0.0
    assert gram.values.min() >= -1.0 and gram.values.max() <= 1.0


def test_gram_positive_semidefinite():
    rng = np.random.default_rng(71)
    for n in (20, 80, 200):
        x = random_dataset(rng, n, 4)
        gram = gram_matrix(x)
        assert np.linalg.eigvalsh(gram.values).min() >= -1e-8 * n


def test_gram_matches_pairwise_kappa():
    rng = np.random.default_rng(73)
    x = random_dataset(rng, 12, 3)
    gram = gram_matrix(x, alpha=0.1)
    tensor = distance_tensor(x)
    critical = critical_matrix(3, 0.1)
    for i, i2 in ((0, 0), (0, 5), (3, 11), (7, 2)):
        assert gram.values[i, i2] == pytest.approx(
            kappa_kernel(tensor, tensor, critical, i, i2), abs=1e-10
        )


def test_cross_gram_matches_pairwise_kappa():
    rng = np.random.default_rng(79)
    a = random_dataset(rng, 10, 3)
    b = random_dataset(rng, 14, 3)
    gram = gram_matrix(a, b, alpha=0.1)
    assert gram.values.shape == (10, 14)
    ta, tb = distance_tensor(a), distance_tensor(b)
    critical = critical_matrix(3, 0.1)
    for i, i2 in ((0, 0), (9, 13), (4, 7)):
        za, zb = ta.z[i], tb.z[i2]
        pa, pb = za.T @ za, zb.T @ zb
        t = critical
        gamma = np.sum(pa * pb) - np.sum(pa * t) - np.sum(t * pb) + 3 * 2 * critical[0, 1]**2
        self_a = np.sum((pa - t) ** 2)
        self_b = np.sum((pb - t) ** 2)
        assert gram.values[i, i2] == pytest.approx(
            gamma / np.sqrt(self_a * self_b), abs=1e-10
        )


def test_gram_duplicated_sample_rows():
    rng = np.random.default_rng(83)
    x = random_dataset(rng, 15, 3)
    x[7] = x[2]
    gram = gram_matrix(x).values
    assert np.allclose(gram[2], gram[7], atol=1e-12)


def test_gram_sample_permutation_equivariance():
    rng = np.random.default_rng(89)
    x = random_dataset(rng, 18, 3)
    perm = rng.permutation(18)
    base = gram_matrix(x).values
    permuted = gram_matrix(x[perm]).values
    assert np.allclose(permuted, base[np.ix_(perm, perm)], atol=1e-10)


def test_gram_dimension_mismatch(builds):
    # the feature counts are compared before either dataset's products are built
    rng = np.random.default_rng(97)
    with pytest.raises(DimensionMismatchError, match="feature counts differ: 3 vs 4"):
        gram_matrix(random_dataset(rng, 8, 3), random_dataset(rng, 8, 4))
    assert builds == []


def test_gram_accepts_dataset_objects():
    rng = np.random.default_rng(101)
    ds = Dataset(random_dataset(rng, 9, 2))
    assert gram_matrix(ds).values.shape == (9, 9)


DEFAULT_BLOCK_BYTES = depcon.kernel.DEFAULT_BLOCK_BYTES


def _block_spans(monkeypatch, x, block_bytes=DEFAULT_BLOCK_BYTES):
    """The (start, stop) row blocks ``contribution_features(x)`` builds."""
    spans = []
    build = depcon.kernel._product_block

    def spy(x, a, start, stop, out):
        spans.append((start, stop))
        build(x, a, start, stop, out)

    with monkeypatch.context() as patch:
        patch.setattr(depcon.kernel, "DEFAULT_BLOCK_BYTES", block_bytes)
        patch.setattr(depcon.kernel, "_product_block", spy)
        contribution_features(x, threads=1)
    return spans


def test_gram_block_and_thread_determinism(monkeypatch):
    rng = np.random.default_rng(103)
    x = random_dataset(rng, 50, 4)
    base = gram_matrix(x).values
    # a row of scratch is 50 * 4 doubles = 1600 bytes: 7-row, one-row and single blocks
    for block_bytes, threads in ((7 * 1600, 1), (7 * 1600, 4), (1, 2), (DEFAULT_BLOCK_BYTES, 3)):
        monkeypatch.setattr(depcon.kernel, "DEFAULT_BLOCK_BYTES", block_bytes)
        assert np.array_equal(base, gram_matrix(x, threads=threads).values)


def test_features_block_and_thread_invariant(monkeypatch):
    # at n=200, m=4 the default block budget splits the rows into two blocks
    rng = np.random.default_rng(137)
    x = random_dataset(rng, 200, 4)
    assert len(_block_spans(monkeypatch, x)) == 2
    bases = {s: contribution_features(x, standardize=s, threads=1) for s in (True, False)}
    # a row of scratch is 200 * 4 doubles = 6400 bytes: one-row, 3-row and single blocks
    for block_bytes in (1, 3 * 6400, 200 * 6400, DEFAULT_BLOCK_BYTES):
        monkeypatch.setattr(depcon.kernel, "DEFAULT_BLOCK_BYTES", block_bytes)
        for standardize, base in bases.items():
            for threads in (1, 2):
                other = contribution_features(x, standardize=standardize, threads=threads)
                assert np.array_equal(base, other)


def _warnings_of(call):
    """``call()``'s result and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, caught


def test_folded_aggregates_match_the_stack(monkeypatch, tmp_path):
    # the aggregate callers and the Gram paths fold each row block as it is
    # built: every sum and Gram must be the stack's, bit for bit, at any block
    # size and thread count, and degenerate samples must be named exactly as
    # the stack names them
    rng = np.random.default_rng(157)
    a, b = random_dataset(rng, 200, 4), random_dataset(rng, 150, 4)
    crit_a = crit_b = critical_matrix(4, 0.1)
    feats_a, feats_b = contribution_features(a, threads=1), contribution_features(b, threads=1)
    # the 12 samples of b with the smallest contribution norms count as degenerate
    phi = feats_b.reshape(150, -1) - crit_b.reshape(-1)
    sq_norms = np.sort(np.einsum("ij,ij->i", phi, phi))
    monkeypatch.setattr(depcon.kernel, "DEGENERATE_SQ_NORM", (sq_norms[11] + sq_norms[12]) / 2)
    (u_a, zero_a), (u_b, zero_b) = _unit_rows(feats_a, crit_a), _unit_rows(feats_b, crit_b)
    _, caught = _warnings_of(lambda: [_warn_degenerate(z, stacklevel=1) for z in (zero_a, zero_b)])
    expected_warnings = [str(w.message) for w in caught]
    assert expected_warnings[-1].startswith("12 of 150 samples") and expected_warnings[-1].endswith(", ...")
    units_a, units_b = u_a.sum(axis=0), u_b.sum(axis=0)
    score = float(units_a @ units_b)
    stat_a = feats_a.sum(axis=0) - 200 * crit_a
    stat_b = feats_b.sum(axis=0) - 150 * crit_b
    mean_a = feats_a.mean(axis=0) - crit_a
    dcov_b = np.maximum(contribution_features(b, standardize=False).sum(axis=0) / 150**2, 0.0)
    # the CLI pins BLAS to one thread; a product split across threads rounds differently
    with _one_blas_thread():
        gram_b, cross = _gram_from_units(u_b).values, _gram_from_units(u_a, u_b).values
    data_b = tmp_path / "b.csv"
    _publish(*_csv_outputs(data_b, _matrix_rows(b, b","), {"command": "test"}))
    # a row of scratch is 200 * 4 doubles = 6400 bytes: one-row, 3-row and default blocks
    for block_bytes in (1, 3 * 6400, DEFAULT_BLOCK_BYTES):
        monkeypatch.setattr(depcon.kernel, "DEFAULT_BLOCK_BYTES", block_bytes)
        for threads in (1, 2, 4):
            depcon.kernel._sums.clear()  # build again at this block size and thread count
            assert np.array_equal(aggregate_statistic(a, threads=threads), stat_a)
            assert np.array_equal(mean_contribution(a, threads=threads), mean_a)
            assert np.array_equal(distance_cov_matrix(b), dcov_b)
            result, caught = _warnings_of(lambda: structure_difference_score(a, b, threads=threads))
            assert [str(w.message) for w in caught] == expected_warnings
            assert all(w.filename == __file__ for w in caught)  # named at the caller
            assert result.score == score
            assert np.array_equal(result.statistic_a, stat_a)
            assert np.array_equal(result.statistic_b, stat_b)
            with _one_blas_thread():
                square, caught = _warnings_of(lambda: gram_matrix(b, threads=threads).values)
                assert [str(w.message) for w in caught] == expected_warnings[-1:]
                assert all(w.filename == __file__ for w in caught)
                assert square.tobytes() == gram_b.tobytes()
                both, caught = _warnings_of(lambda: gram_matrix(a, b, threads=threads).values)
                assert [str(w.message) for w in caught] == expected_warnings
                assert all(w.filename == __file__ for w in caught)
                assert both.tobytes() == cross.tobytes()
            args = ["gram", str(data_b), "-o", str(tmp_path / "g.csv"), "--threads", str(threads)]
            status, caught = _warnings_of(lambda: main(args))
            assert status == 0 and [str(w.message) for w in caught] == expected_warnings[-1:]
            assert _load_gram(tmp_path / "g.csv").tobytes() == gram_b.tobytes()


def test_default_block_rows_at_least_one(monkeypatch):
    x = random_dataset(np.random.default_rng(139), 5, 2)
    # one row of scratch (5 * 2 doubles) larger than the whole budget
    assert _block_spans(monkeypatch, x, block_bytes=8) == [(i, i + 1) for i in range(5)]
    assert _block_spans(monkeypatch, x, block_bytes=3 * 80) == [(0, 3), (3, 5)]
    assert _block_spans(monkeypatch, x) == [(0, 5)]


@pytest.mark.parametrize("shift", [-1000, -60, 3, 500])
def test_power_of_two_scaling_is_exact(shift):
    # each column is brought into [-1, 1) by a power of two before any sum, so
    # outputs in the data's units scale exactly and kappa does not move a bit
    x = random_dataset(np.random.default_rng(157), 40, 3)
    big = x.copy()
    big[:, 1] = np.ldexp(big[:, 1], shift)
    row_mean, grand_mean = distance_moments(x)
    big_row_mean, big_grand_mean = distance_moments(big)
    assert np.array_equal(big_row_mean[:, 1], np.ldexp(row_mean[:, 1], shift))
    assert np.array_equal(big_grand_mean, grand_mean * [1.0, 2.0**shift, 1.0])
    pair_shift = np.array([0, shift, 0])[:, None] + np.array([0, shift, 0])
    assert np.array_equal(distance_cov_matrix(big), np.ldexp(distance_cov_matrix(x), pair_shift))
    unstandardized = contribution_features(x, standardize=False)
    assert np.array_equal(
        contribution_features(big, standardize=False), np.ldexp(unstandardized, pair_shift)
    )
    assert np.array_equal(gram_matrix(big).values, gram_matrix(x).values)
    assert np.array_equal(aggregate_statistic(big), aggregate_statistic(x))


def test_overflowing_outputs_raise_non_finite():
    # spreads near 3.4e308: kappa and the statistics are finite, while the
    # mean distances and the covariances in the data's units overflow
    x = np.array([[1.7e308, 1.0], [-1.7e308, 3.0], [-1.7e308, 2.0], [0.0, 5.0]])
    assert np.isfinite(gram_matrix(x).values).all()
    assert np.isfinite(aggregate_statistic(x)).all()
    for call in (
        distance_moments,
        distance_cov_matrix,
        partial(contribution_features, standardize=False),
    ):
        with pytest.raises(NonFiniteValueError):
            call(x)


class _SerialPool:
    """Stands in for ThreadPoolExecutor: records ``max_workers``, runs blocks in order."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "threads, cpus, block_bytes, workers",
    [
        (1, 8, 1, None),  # one thread: no pool
        (4, 8, DEFAULT_BLOCK_BYTES, None),  # one block: no pool
        (4, 1, 1, None),  # one CPU: no pool
        (4, 8, 1, 4),
        (64, 8, 1, 8),  # capped at the CPU count
        (64, None, 1, None),  # CPU count unknown: counts as 1
        (16000, 64, 1, 20),  # capped at the block count, 20 one-row blocks
    ],
)
def test_thread_pool_is_bounded(monkeypatch, threads, cpus, block_bytes, workers):
    x = random_dataset(np.random.default_rng(149), 20, 3)
    base = contribution_features(x, threads=1)
    _SerialPool.sizes = []
    # the pool's module is imported only when a build runs more than one worker
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _SerialPool)
    monkeypatch.setattr(depcon.kernel.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(depcon.kernel, "DEFAULT_BLOCK_BYTES", block_bytes)
    assert np.array_equal(contribution_features(x, threads=threads), base)
    assert _SerialPool.sizes == ([] if workers is None else [workers])


# ---------------------------------------------------------------- distances


def test_sample_set_distance_symmetry():
    rng = np.random.default_rng(107)
    a = random_dataset(rng, 20, 3)
    b = random_dataset(rng, 20, 3)
    assert sample_set_distance(a, b) == pytest.approx(sample_set_distance(b, a), abs=1e-10)


def test_sample_set_distance_rejects_feature_mismatch(builds):
    rng = np.random.default_rng(108)
    with pytest.raises(DimensionMismatchError, match="feature counts differ: 3 vs 4"):
        sample_set_distance(random_dataset(rng, 20, 3), random_dataset(rng, 20, 4))
    assert builds == []


def test_mean_distance_on_sign_matrices():
    # identical sign-matrix means -> 0; one flipped symmetric pair -> 2
    sign = np.array([[1, 1, -1], [1, 1, 1], [-1, 1, 1]], dtype=float)
    assert contribution_mean_distance(sign, sign) == pytest.approx(0.0)
    flipped = sign.copy()
    flipped[0, 1] = flipped[1, 0] = -1
    assert contribution_mean_distance(sign, flipped) == pytest.approx(2.0)


def test_sample_set_distance_printed_form_offset():
    rng = np.random.default_rng(109)
    a = random_dataset(rng, 12, 3)
    b = random_dataset(rng, 12, 3)
    halved = sample_set_distance(a, b)
    printed = printed_sample_set_distance(a, b)
    # printed form: m^2 - mean_gamma / 2 versus (m^2 - mean_gamma) / 2
    assert printed - halved == pytest.approx(9.0 / 2.0, abs=1e-9)


def test_mean_contribution_matches_feature_mean():
    rng = np.random.default_rng(113)
    x = random_dataset(rng, 14, 3)
    critical = critical_matrix(3, 0.1)
    feats = contribution_features(x)
    expected = feats.mean(axis=0) - critical
    assert np.allclose(mean_contribution(x, alpha=0.1), expected, atol=1e-12)


def test_cross_gram_per_side_scaling():
    # the critical value does not depend on a side's sample count: every cell
    # of a cross Gram with n_a != n_b is the reference kappa under one matrix
    rng = np.random.default_rng(127)
    a = random_dataset(rng, 10, 3)
    b = random_dataset(rng, 25, 3)
    gram = gram_matrix(a, b, alpha=0.1)
    critical = critical_matrix(3, 0.1)
    ta, tb = distance_tensor(a), distance_tensor(b)
    expected = [[kappa_kernel(ta, tb, critical, i, i2) for i2 in range(25)] for i in range(10)]
    assert np.allclose(gram.values, expected, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5])
def test_quantile_over_n_is_the_kept_scaling_at_another_alpha(alpha):
    # T = q_{1-alpha} / n, the critical value as the paper prints it, is the
    # kept chi-square quantile at alpha' = 1 - erf(sqrt(T / 2))
    rng = np.random.default_rng(131)
    n, m = 300, 3
    x = random_dataset(rng, n, m)
    t = chi2_quantile_1df(1.0 - alpha) / n
    alpha_printed = 1.0 - math.erf(math.sqrt(t / 2.0))
    assert critical_matrix(m, alpha_printed)[0, 1] == pytest.approx(t, rel=1e-14, abs=0.0)
    printed = t * (1.0 - np.eye(m))
    tensor = distance_tensor(x)
    gram = gram_matrix(x, alpha=alpha_printed)
    cells = [(0, 0), (0, 1), (17, 230), (299, 5), (120, 121)]
    expected = [kappa_kernel(tensor, tensor, printed, i, i2) for i, i2 in cells]
    assert np.allclose([gram.values[c] for c in cells], expected, rtol=0.0, atol=1e-14)


def test_threads_default_is_one():
    assert _resolve_threads(None) == 1
    assert _resolve_threads(2) == 2


@pytest.mark.parametrize("threads", [0, -4], ids=["0-None", "-4-None"])
def test_thread_count_below_one_rejected(threads):
    x = random_dataset(np.random.default_rng(151), 10, 2)
    with pytest.raises(OutOfRangeError, match="at least 1 thread"):
        contribution_features(x, threads=threads)
    with pytest.raises(OutOfRangeError):
        gram_matrix(x, threads=threads)


@pytest.mark.parametrize("fault", ["1-D", "no-rows", "one-row", "no-columns", "NaN"])
@pytest.mark.parametrize(
    "entry",
    [
        gram_matrix,
        aggregate_statistic,
        contribution_features,
        distance_cov_matrix,
        distance_moments,
        independence_test,
    ],
    ids=lambda entry: entry.__name__,
)
def test_raw_arrays_meet_the_dataset_checks(entry, fault):
    x = random_dataset(np.random.default_rng(152), 20, 3)
    if fault == "1-D":
        with pytest.raises(TooFewFeaturesError, match="dataset must be a 2-D matrix"):
            entry(x[:, 0])
    elif fault in ("no-rows", "one-row"):
        rows = 0 if fault == "no-rows" else 1
        with pytest.raises(TooFewSamplesError, match=f"need at least 2 samples, got {rows}$"):
            entry(x[:rows])
    elif fault == "no-columns":
        with pytest.raises(TooFewFeaturesError, match="need at least 1 feature, got 0"):
            entry(x[:, :0])
    else:
        x[4, 1] = np.nan
        with pytest.raises(NonFiniteValueError, match=r"non-finite value in dataset at \(4, 1\)"):
            entry(x)


@pytest.mark.parametrize(
    "entry",
    [
        gram_matrix,
        aggregate_statistic,
        independence_test,
        mean_contribution,
        lambda x: sample_set_distance(x, x),
        lambda x: structure_difference_score(x, x),
        lambda x: critical_matrix(x.shape[1], 0.1),
    ],
    ids=[
        "gram_matrix",
        "aggregate_statistic",
        "independence_test",
        "mean_contribution",
        "sample_set_distance",
        "structure_difference_score",
        "critical_matrix",
    ],
)
def test_one_column_arrays_have_no_critical_matrix(entry):
    # as a one-column Dataset: the critical matrix needs 2 features, and the
    # public function and its callers refuse one column with one error
    x = random_dataset(np.random.default_rng(154), 20, 1)
    with pytest.raises(TooFewFeaturesError, match="need at least 2 features, got 1$"):
        entry(x)


def test_one_feature_arrays_still_build():
    x = random_dataset(np.random.default_rng(153), 20, 1)
    assert contribution_features(x).shape == (20, 1, 1)
    assert distance_cov_matrix(x).shape == (1, 1)
    assert [part.shape for part in distance_moments(x)] == [(20, 1), (1,)]


@pytest.mark.parametrize(
    "shape_a, shape_b",
    [((2, 2), (3, 3)), ((2, 3), (2, 3)), ((3,), (3,))],
    ids=["sizes-differ", "not-square", "1-D"],
)
def test_contribution_mean_distance_needs_one_square_shape(shape_a, shape_b):
    with pytest.raises(DimensionMismatchError, match="must share a square shape"):
        contribution_mean_distance(np.zeros(shape_a), np.zeros(shape_b))
