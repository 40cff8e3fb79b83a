import tracemalloc

import numpy as np
import pytest

from depcon.errors import DimensionMismatchError, SmallSampleWarning
from depcon.inference import (
    aggregate_statistic,
    independence_test,
    structure_difference_score,
)
from depcon.kernel import gram_matrix
from reference import distance_tensor


def test_duplicated_feature_rejected():
    # the critical offset grows as alpha shrinks, so n=10 suffices only for
    # alpha >= 0.1 (n=50 covers the strict levels)
    rng = np.random.default_rng(0)
    col = rng.standard_normal(10)
    x = np.column_stack([col, col])
    for alpha in (0.1, 0.5, 0.999):
        result = independence_test(x, alpha=alpha)
        assert result.reject[0, 1] and result.reject[1, 0]
        assert not result.reject[0, 0]
    col = rng.standard_normal(50)
    x = np.column_stack([col, col])
    for alpha in (0.001, 0.01, 0.1, 0.999):
        assert independence_test(x, alpha=alpha).reject[0, 1]


def test_small_sample_warning():
    rng = np.random.default_rng(1)
    with pytest.warns(SmallSampleWarning):
        independence_test(rng.standard_normal((5, 2)))


def test_statistic_matches_classical_form():
    # entry = n^2 V_n^2 / S_2 - n * t, built here directly from centered distances
    rng = np.random.default_rng(2)
    x = rng.standard_normal((35, 2))
    from depcon.critical import chi2_quantile_1df

    tensor = distance_tensor(x)
    c, grand_mean = tensor.c, tensor.feature_mean_distance
    v2 = float((c[:, :, 0] * c[:, :, 1]).sum()) / 35**2
    expected = 35**2 * v2 / (grand_mean[0] * grand_mean[1]) - 35 * chi2_quantile_1df(0.9)
    stat = aggregate_statistic(x, alpha=0.1)
    assert stat[0, 1] == pytest.approx(expected, rel=1e-10)


def test_empirical_size_within_bound():
    # two independent standard normals, n=200, alpha=0.1, 500 seeded trials
    rejections = 0
    for child in np.random.SeedSequence(20240501).spawn(500):
        rng = np.random.default_rng(child)
        result = independence_test(rng.standard_normal((200, 2)), alpha=0.1)
        rejections += int(result.reject[0, 1])
    assert rejections / 500 <= 0.13


def test_power_monotone_in_sample_size():
    # cos(4X) dependence: rejection rate nondecreasing over n in {50, 200, 800}
    rates = []
    for n in (50, 200, 800):
        rejections = 0
        trials = 40
        for child in np.random.SeedSequence(n).spawn(trials):
            rng = np.random.default_rng(child)
            x = rng.uniform(-np.pi, np.pi, n)
            y = np.cos(4 * x) + 0.1 * rng.standard_normal(n)
            result = independence_test(np.column_stack([x, y]), alpha=0.1)
            rejections += int(result.reject[0, 1])
        rates.append(rejections / trials)
    assert rates[0] <= rates[1] <= rates[2]
    assert rates[2] >= 0.95


def test_structure_score_self_comparison():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((60, 3))
    result = structure_difference_score(x, x)
    assert not result.different_structure
    assert result.score > 0
    assert result.witnesses == ()


def test_structure_same_distribution_not_flagged():
    # disjoint draws from one model: different_structure stays false
    flags = 0
    for child in np.random.SeedSequence(5).spawn(20):
        rng = np.random.default_rng(child)
        base = rng.standard_normal((500, 1))
        a = np.column_stack([base[:, 0], base[:, 0] + rng.standard_normal(500)])
        rng2 = np.random.default_rng(child.spawn(1)[0])
        base2 = rng2.standard_normal((500, 1))
        b = np.column_stack([base2[:, 0], base2[:, 0] + rng2.standard_normal(500)])
        flags += int(structure_difference_score(a, b).different_structure)
    assert flags <= 4


def test_structure_witnesses_report_sign_mismatches():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((400, 2))  # independent pair
    xb = rng.standard_normal(400)
    b = np.column_stack([xb, xb + 0.05 * rng.standard_normal(400)])  # dependent pair
    result = structure_difference_score(a, b)
    assert (0, 1) in result.witnesses
    assert result.statistic_a[0, 1] < 0 < result.statistic_b[0, 1]


def test_structure_dimension_mismatch():
    rng = np.random.default_rng(8)
    with pytest.raises(DimensionMismatchError):
        structure_difference_score(rng.standard_normal((20, 2)), rng.standard_normal((20, 3)))


def _structure_pair():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((80, 3))
    xb = rng.standard_normal(80)
    b = np.column_stack([xb, np.cos(2 * xb) + 0.1 * rng.standard_normal(80),
                         rng.standard_normal(80)])
    return a, b


def test_structure_builds_features_once_per_dataset(builds):
    # every feature build, stacked or folded, runs the one row-block core
    structure_difference_score(*_structure_pair())
    assert len(builds) == 2


def test_structure_parts_match_standalone_results():
    a, b = _structure_pair()
    result = structure_difference_score(a, b, alpha=0.1)
    assert np.array_equal(result.statistic_a, independence_test(a).statistic)
    assert np.array_equal(result.statistic_b, independence_test(b).statistic)
    # the score is the cross Gram's total, summed without the n x n' matrix
    total = float(gram_matrix(a, b, alpha=0.1).values.sum())
    assert result.score == pytest.approx(total, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("test", ["independence", "structure"])
def test_aggregate_callers_hold_no_feature_stack(test):
    # each row block is folded as it is built: the Python allocations traced
    # stay below one (n, m, m) contribution stack
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((4000, 10)), rng.standard_normal((4000, 10))
    tracemalloc.start()
    try:
        if test == "independence":
            independence_test(a, threads=1)
        else:
            structure_difference_score(a, b, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4000 * 10 * 10 * 8
