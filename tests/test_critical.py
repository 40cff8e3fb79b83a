import numpy as np
import pytest

from depcon.critical import chi2_quantile_1df, critical_matrix
from depcon.errors import OutOfRangeError

# reference quantiles frozen from an independent table oracle (scipy.stats.chi2.ppf)
REFERENCE = {
    0.5: 0.454936423119572,
    0.9: 2.705543454095404,
    0.95: 3.841458820694124,
    0.99: 6.6348966010212145,
    0.999: 10.827566170662733,
}


@pytest.mark.parametrize("p,expected", sorted(REFERENCE.items()))
def test_quantile_reference_values(p, expected):
    assert chi2_quantile_1df(p) == pytest.approx(expected, abs=1e-10)


def test_quantile_against_scipy_grid():
    scipy_stats = pytest.importorskip("scipy.stats")
    for p in np.linspace(0.001, 0.999, 41):
        assert chi2_quantile_1df(float(p)) == pytest.approx(
            float(scipy_stats.chi2.ppf(p, 1)), abs=1e-10
        )


def test_quantile_out_of_range():
    for p in (0.0, 1.0, -0.5, 2.0, float("nan")):
        with pytest.raises(OutOfRangeError):
            chi2_quantile_1df(p)


def test_quantile_monotone_in_alpha():
    alphas = np.linspace(0.01, 0.99, 25)
    quantiles = [critical_matrix(3, float(a)).off_diagonal for a in alphas]
    assert all(a > b for a, b in zip(quantiles, quantiles[1:]))


def test_alpha_to_one_limit():
    cm = critical_matrix(2, 1.0 - 1e-12)
    assert cm.off_diagonal == pytest.approx(0.0, abs=1e-10)


def test_alpha_whose_complement_rounds_to_one():
    # 1 - alpha == 1.0 leaves no quantile to solve for; the next alpha up keeps its value
    for alpha in (1e-17, 2.0**-54, 5e-324):
        with pytest.raises(OutOfRangeError, match=f"alpha {alpha} is too small"):
            critical_matrix(3, alpha)
    for alpha in (np.nextafter(2.0**-54, 1.0), 2.0**-53, 1e-16, 0.05, 0.5):
        assert critical_matrix(3, alpha).off_diagonal == chi2_quantile_1df(1.0 - alpha)


def test_m2_structure():
    cm = critical_matrix(2, 0.1)
    t = cm.off_diagonal
    assert np.array_equal(cm.values, np.array([[0.0, t], [t, 0.0]]))
    assert cm.sq_norm == pytest.approx(2 * t * t)


def test_matrix_validation():
    with pytest.raises(OutOfRangeError):
        critical_matrix(1, 0.1)
    with pytest.raises(OutOfRangeError):
        critical_matrix(3, 0.0)
