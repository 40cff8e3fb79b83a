"""The Gram file `depcon gram` streams from the unit vectors in row bands."""

import json

import numpy as np
import pytest

import depcon.cli
import depcon.kernel
from depcon.cli import _csv_outputs, _matrix_rows, _one_blas_thread, _publish, main
from depcon.dataset import _load_gram
from depcon.errors import NonFiniteValueError
from depcon.kernel import GRAM_BAND_ROWS, gram_matrix

B = GRAM_BAND_ROWS


def _dataset(tmp_path, n, seed=5):
    """A dependent (n, 4) dataset and its CSV file, which reads back bit for bit."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4))
    x[:, 1] += np.sin(2.0 * x[:, 0])
    path = tmp_path / "data.csv"
    _publish(*_csv_outputs(path, _matrix_rows(x, b","), {"command": "test"}))
    return x, path


def _library_gram(x):
    # the CLI pins BLAS to one thread; a product split across threads rounds differently
    with _one_blas_thread():
        return gram_matrix(x).values


@pytest.mark.parametrize("n", [2, B - 1, B, B + 1, 2 * B + 1, 900])
def test_gram_file_is_the_library_gram(tmp_path, n):
    x, data = _dataset(tmp_path, n)
    gram = _library_gram(x)
    assert gram.tobytes() == gram.T.tobytes(order="C")  # exactly symmetric
    assert np.abs(np.diagonal(gram) - 1.0).max() <= 4 * np.finfo(np.float64).eps
    assert main(["gram", str(data), "-o", str(tmp_path / "g.csv")]) == 0
    assert _load_gram(tmp_path / "g.csv").tobytes() == gram.tobytes()
    assert main(["gram", str(data), "-o", str(tmp_path / "g.json")]) == 0
    values = json.loads((tmp_path / "g.json").read_text())["values"]
    assert np.array(values, dtype=np.float64).tobytes() == gram.tobytes()


def test_gram_file_reprs_each_upper_cell_once(tmp_path, monkeypatch):
    n = 2 * B + 1
    x, data = _dataset(tmp_path, n)
    formatted = []

    def counting_repr(value):
        formatted.append(value)
        return repr(value)

    # module globals come before builtins, so the writer calls this one
    monkeypatch.setattr(depcon.cli, "repr", counting_repr, raising=False)
    assert main(["gram", str(data), "-o", str(tmp_path / "g.csv")]) == 0
    gram = _library_gram(x)
    # each row's cells from the diagonal on, the rows in order, and nothing else
    assert np.array(formatted).tobytes() == gram[np.triu_indices(n)].tobytes()
    assert _load_gram(tmp_path / "g.csv").tobytes() == gram.tobytes()


def test_only_the_upper_triangle_of_a_band_is_used(tmp_path, monkeypatch):
    # a band's diagonal block below the diagonal is the mirror's cells, which
    # another BLAS may round differently; neither the library nor the file reads them
    n = 2 * B + 1
    x, data = _dataset(tmp_path, n)
    gram = _library_gram(x)
    bands = depcon.kernel._gram_bands

    def spoiled(u, out=None):
        for start, band in bands(u, out):
            rows = band.shape[0]
            band[:, :rows][np.tri(rows, k=-1, dtype=bool)] = 7.0
            yield start, band

    monkeypatch.setattr(depcon.kernel, "_gram_bands", spoiled)
    monkeypatch.setattr(depcon.cli, "_gram_bands", spoiled)
    assert _library_gram(x).tobytes() == gram.tobytes()
    assert main(["gram", str(data), "-o", str(tmp_path / "g.csv")]) == 0
    assert _load_gram(tmp_path / "g.csv").tobytes() == gram.tobytes()


@pytest.mark.parametrize(
    "fmt, n, nan_row, rows",
    [
        # one short band: the message clips the band's end to n
        pytest.param("csv", 20, 3, "0..19", id="csv"),
        pytest.param("json", 20, 3, "0..19", id="json"),
        # a NaN in row 200 of 300 spoils the first full band's columns
        pytest.param("csv", 300, 200, "0..127", id="csv-300"),
        pytest.param("json", 300, 200, "0..127", id="json-300"),
    ],
)
def test_non_finite_gram_band_exit_code(tmp_path, monkeypatch, capsys, fmt, n, nan_row, rows):
    # the file is published only once every band is checked, so nothing is left behind
    _, data = _dataset(tmp_path, n)
    units = depcon.cli._unit_vectors

    def with_nan(data, alpha, convention, threads):
        u = units(data, alpha, convention, threads)
        u[nan_row, 0] = np.nan
        return u

    monkeypatch.setattr(depcon.cli, "_unit_vectors", with_nan)
    inputs = sorted(tmp_path.iterdir())
    out = tmp_path / f"g.{fmt}"
    argv = ["gram", str(data), "-o", str(out)]
    assert main(argv) == NonFiniteValueError.exit_code
    assert f"non-finite value in the Gram's rows {rows} " in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == inputs
    # a failed rerun leaves the files of an earlier run as they were
    out.write_bytes(b"earlier\n")
    (tmp_path / f"g.{fmt}.provenance.json").write_bytes(b"{}\n")
    assert main(argv) == NonFiniteValueError.exit_code
    assert out.read_bytes() == b"earlier\n"
    assert (tmp_path / f"g.{fmt}.provenance.json").read_bytes() == b"{}\n"
    assert not list(tmp_path.glob("*.tmp"))
