"""Each dataset's dependence sums are built once per process and critical matrix."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import depcon
from depcon import kernel
from depcon.cli import main
from depcon.critical import CriticalScale, critical_matrix
from depcon.dataset import Dataset
from depcon.errors import DegenerateSampleWarning, OutOfRangeError
from depcon.inference import aggregate_statistic, independence_test, structure_difference_score
from depcon.kernel import contribution_features, mean_contribution, sample_set_distance


@pytest.fixture
def builds(monkeypatch):
    """One entry per feature build: every build runs ``_product_blocks`` once."""
    calls = []
    original = kernel._product_blocks

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(kernel, "_product_blocks", counted)
    return calls


def _pair():
    rng = np.random.default_rng(20)
    a = rng.standard_normal((120, 4))
    b = rng.standard_normal((150, 4))
    b[:, 1] = np.cos(2 * b[:, 0]) + 0.1 * b[:, 1]
    return a, b


def _flag_degenerate(monkeypatch, values, convention):
    """Raise ``DEGENERATE_SQ_NORM`` so the 3 samples of ``values`` with the smallest
    contribution norms count as degenerate."""
    n, m = values.shape
    phi = contribution_features(values).reshape(n, -1)
    phi -= critical_matrix(m, n, 0.1, convention).values.reshape(-1)
    sq_norms = np.sort(np.einsum("ij,ij->i", phi, phi))
    monkeypatch.setattr(kernel, "DEGENERATE_SQ_NORM", (sq_norms[2] + sq_norms[3]) / 2)


def _outputs(a, b, convention, threads, cold):
    """Every aggregate output on ``a`` and ``b`` and every warning, the benchmark's
    calls first; ``cold`` drops the kept sums before each call."""
    kw = dict(alpha=0.1, convention=convention, threads=threads)
    calls = [
        lambda: independence_test(a, **kw),
        lambda: independence_test(b, **kw),
        lambda: structure_difference_score(a, b, **kw),
        lambda: mean_contribution(a, **kw),
        lambda: sample_set_distance(a, b, **kw),
    ]
    results = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for call in calls:
            if cold:
                kernel._sums.clear()
            results.append(call())
    indep_a, indep_b, comparison, mean_a, distance = results
    arrays = [
        indep_a.statistic, indep_a.reject, indep_b.statistic, indep_b.reject,
        comparison.statistic_a, comparison.statistic_b, mean_a,
    ]
    scalars = [comparison.score, comparison.different_structure, comparison.witnesses, distance]
    messages = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
    return arrays, scalars, messages


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("convention", list(CriticalScale))
def test_repeated_datasets_are_built_once(builds, monkeypatch, convention, threads):
    a, b = _pair()
    _flag_degenerate(monkeypatch, b, convention)
    cold = _outputs(a, b, convention, threads, cold=True)
    assert any(c is DegenerateSampleWarning for c, *_ in cold[2])
    kernel._sums.clear()
    builds.clear()
    warm = _outputs(a, b, convention, threads, cold=False)
    # indep(a), indep(b) and the comparison build a and b once each; the rest reuse them
    assert len(builds) == 2
    assert all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(warm[0], cold[0]))
    assert warm[1] == cold[1]
    assert warm[2] == cold[2]


@pytest.mark.parametrize("wrap", [np.asarray, Dataset], ids=["array", "dataset"])
def test_changed_cell_is_built_again(builds, tmp_path, wrap):
    a, _ = _pair()
    data = wrap(a.copy())
    values = data.values if isinstance(data, Dataset) else data
    first = independence_test(data).statistic
    values[7, 2] += 0.25  # in place: the same object, new content
    changed = independence_test(data).statistic
    assert len(builds) == 2
    assert not np.array_equal(changed, first)
    np.save(tmp_path / "a.npy", values)
    script = (
        "import sys; import numpy as np; from depcon import independence_test; "
        "np.save(sys.argv[2], independence_test(np.load(sys.argv[1])).statistic)"
    )
    source = os.path.dirname(os.path.dirname(depcon.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "a.npy"), str(tmp_path / "fresh.npy")],
        env=env,
        check=True,
    )
    assert np.array_equal(changed, np.load(tmp_path / "fresh.npy"))


def test_key_holds_what_changes_the_sums(builds):
    rng = np.random.default_rng(21)
    a = rng.standard_normal((60, 4))
    big = rng.standard_normal((120, 6))
    cases = [
        ("a", a, {}),
        ("same values in Fortran order", np.asfortranarray(a), {}),
        ("same bytes as 40 x 6", a.reshape(40, 6), {}),
        ("same bytes as 120 x 2", a.reshape(120, 2), {}),
        ("a's buffer read in Fortran order", a.ravel().reshape(a.shape, order="F"), {}),
        ("another alpha", a, {"alpha": 0.05}),
        ("another convention", a, {"convention": CriticalScale.CHI2_OVER_N}),
        ("a strided slice", big[::2, :4], {}),
        ("the slice's contiguous copy", np.ascontiguousarray(big[::2, :4]), {}),
    ]
    expected = {}
    for name, values, kw in cases:
        kernel._sums.clear()
        expected[name] = independence_test(np.array(values), **kw).statistic
    kernel._sums.clear()
    builds.clear()
    for name, values, kw in cases:
        assert np.array_equal(independence_test(values, **kw).statistic, expected[name]), name
    # the Fortran-ordered copy and the slice's copy hold kept values; every other case is new
    assert len(builds) == len(cases) - 2


def test_bad_thread_count_fails_with_kept_sums(tmp_path, monkeypatch):
    a, _ = _pair()
    data, out = tmp_path / "a.csv", tmp_path / "out.json"
    np.savetxt(data, a, delimiter=",", fmt="%.17g")
    assert main(["indep", str(data), "-o", str(tmp_path / "kept.json")]) == 0
    assert len(kernel._sums) == 1
    for flag, env in (("0", None), (None, "0")):
        if env is not None:
            monkeypatch.setenv("DEPCON_THREADS", env)
        extra = [] if flag is None else ["--threads", flag]
        assert main(["indep", str(data), "-o", str(out), *extra]) == OutOfRangeError.exit_code
        assert main(["test", str(data), str(data), "-o", str(out), *extra]) == 17
        with pytest.raises(OutOfRangeError):
            independence_test(a, threads=None if flag is None else 0)
        with pytest.raises(OutOfRangeError):
            mean_contribution(a, threads=None if flag is None else 0)
    assert not out.exists()


def test_kept_sums_are_read_only():
    a, _ = _pair()
    critical = critical_matrix(4, 120, 0.1)
    sums = kernel._feature_sums(a, 1, critical)
    assert kernel._feature_sums(a, 2, critical) is sums
    for array in sums:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


def test_kept_datasets_stay_at_the_cap(builds):
    rng = np.random.default_rng(22)
    sets = [rng.standard_normal((30, 3)) for _ in range(kernel._SUMS_ENTRIES + 2)]
    for values in sets:
        aggregate_statistic(values)
        assert len(kernel._sums) <= kernel._SUMS_ENTRIES
    assert len(kernel._sums) == kernel._SUMS_ENTRIES
    assert len(builds) == len(sets)
    aggregate_statistic(sets[2])  # the least recently used kept set: reused, now the newest
    assert len(builds) == len(sets)
    aggregate_statistic(sets[0])  # evicted: built again, evicting sets[3]
    assert len(builds) == len(sets) + 1
    aggregate_statistic(sets[2])
    assert len(builds) == len(sets) + 1
    aggregate_statistic(sets[3])
    assert len(builds) == len(sets) + 2
    assert len(kernel._sums) == kernel._SUMS_ENTRIES
