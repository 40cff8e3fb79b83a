"""The Gram file `depcon gram` streams from the unit vectors in row bands."""

import hashlib
import json
import shutil
import tracemalloc

import numpy as np
import pytest

import depcon.cli
import depcon.kernel
from depcon.cli import _csv_outputs, _matrix_rows, _one_blas_thread, _publish, main
from depcon.dataset import _TWIN_CHECK_BYTES, TWIN_MAGIC, _is_json, _load_gram, _read_table
from depcon.errors import NonFiniteValueError, NotSquareError
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


def test_gram_file_formats_the_library_grams_rows(tmp_path, monkeypatch):
    # every row goes whole through the one formatter, which repr's only the
    # cells orjson spells otherwise: here, the random unit vectors' cells below 1e-4
    n = 2 * B + 1
    x, data = _dataset(tmp_path, n)
    formatted, repred = [], []
    cells = depcon.cli._cells

    def spy(row, sep):
        formatted.append(row.copy())
        return cells(row, sep)

    def counting_repr(value):
        repred.append(value)
        return repr(value)

    monkeypatch.setattr(depcon.cli, "_cells", spy)
    # module globals come before builtins, so the formatter calls this one
    monkeypatch.setattr(depcon.cli, "repr", counting_repr, raising=False)
    units = depcon.cli._unit_vectors
    rng = np.random.default_rng(11)
    random_units = rng.standard_normal((n, 40))
    random_units /= np.linalg.norm(random_units, axis=1, keepdims=True)
    with _one_blas_thread():
        random_gram = depcon.kernel._gram_from_units(random_units).values
    for gram, unit_vectors in ((_library_gram(x), units), (random_gram, lambda *_: random_units)):
        formatted.clear()
        repred.clear()
        monkeypatch.setattr(depcon.cli, "_unit_vectors", unit_vectors)
        assert main(["gram", str(data), "-o", str(tmp_path / "g.csv")]) == 0
        assert np.array(formatted).tobytes() == gram.tobytes()
        size = np.abs(gram)
        odd = gram[~((size >= 1e-4) & (size < 1e16)) & (gram != 0.0)]
        assert np.array(repred, dtype=np.float64).tobytes() == odd.tobytes()
        assert _load_gram(tmp_path / "g.csv").tobytes() == gram.tobytes()
    assert odd.size > 0  # the random units' Gram has cells below 1e-4


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

    def with_nan(data, alpha, threads):
        u = units(data, alpha, threads)
        u[nan_row, 0] = np.nan
        return u

    monkeypatch.setattr(depcon.cli, "_unit_vectors", with_nan)
    inputs = sorted(tmp_path.iterdir())
    out = tmp_path / f"g.{fmt}"
    argv = ["gram", str(data), "-o", str(out)]
    assert main(argv) == NonFiniteValueError.exit_code
    assert f"non-finite value in the Gram's rows {rows} " in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == inputs
    assert not (tmp_path / f"g.{fmt}.twin").exists()
    # a failed rerun leaves the files of an earlier run as they were
    out.write_bytes(b"earlier\n")
    (tmp_path / f"g.{fmt}.provenance.json").write_bytes(b"{}\n")
    (tmp_path / f"g.{fmt}.twin").write_bytes(b"twin\n")
    assert main(argv) == NonFiniteValueError.exit_code
    assert out.read_bytes() == b"earlier\n"
    assert (tmp_path / f"g.{fmt}.provenance.json").read_bytes() == b"{}\n"
    assert (tmp_path / f"g.{fmt}.twin").read_bytes() == b"twin\n"
    assert not list(tmp_path.glob("*.tmp"))


def _parsed(path):
    """The Gram file at ``path`` as the text parse reads it, twin or no twin."""
    return _read_table(path, NotSquareError, json_key="values" if _is_json(path) else None)[1]


def _no_parse(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the Gram text was parsed")

    monkeypatch.setattr(np, "loadtxt", refused)
    monkeypatch.setattr(depcon.dataset, "_decode_json", refused)


@pytest.mark.parametrize("name", ["g.csv", "g.json"])
def test_twin_is_the_gram_bit_for_bit(tmp_path, monkeypatch, name):
    n = 2 * B + 1
    x, data = _dataset(tmp_path, n)
    out = tmp_path / name
    assert main(["gram", str(data), "-o", str(out)]) == 0
    twin = (tmp_path / f"{name}.twin").read_bytes()
    assert len(twin) == 8 * n * (n + 1) // 2 + 16 + _TWIN_CHECK_BYTES
    assert np.frombuffer(twin[:16], dtype=np.uint64).tolist() == [TWIN_MAGIC, n]
    gram = _library_gram(x)
    assert twin[16:-_TWIN_CHECK_BYTES] == gram[np.triu_indices(n)].tobytes()
    assert _parsed(out).tobytes() == gram.tobytes()
    _no_parse(monkeypatch)  # a valid twin is read in place of the text
    assert _load_gram(out).tobytes() == gram.tobytes()


def _gram_pair(tmp_path):
    """Two Gram files from different datasets, ``a.csv`` and ``b.csv``, with their twins."""
    for seed, name in ((5, "a"), (6, "b")):
        _, data = _dataset(tmp_path, 40, seed)
        assert main(["gram", str(data), "-o", str(tmp_path / f"{name}.csv")]) == 0
    return tmp_path / "a.csv", tmp_path / "b.csv"


def _truncate(path, size):
    with open(path, "r+b") as handle:
        handle.truncate(size)


def _flip_bit(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x10
    path.write_bytes(data)


def _replace_by_directory(path):
    path.unlink()
    path.mkdir()


def _version_1_twin(text, twin):
    """Replace ``twin`` by the version-1 twin of ``text``: the same header and
    values, magic version 1 and a 64-byte BLAKE2b digest of the text's bytes,
    the header and the values."""
    data = twin.read_bytes()
    head = np.array(int.from_bytes(b"DEPCONG\x01", "little"), dtype=np.uint64).tobytes() + data[8:16]
    values = data[16:-_TWIN_CHECK_BYTES]
    digest = hashlib.blake2b(text.read_bytes() + head + values).digest()
    twin.write_bytes(head + values + digest)


# each spoils the twin of b.csv, a 40-row Gram (820 upper cells), or the file itself
SPOILS = {
    "twin-of-another-gram": lambda a, b, twin: shutil.copy(f"{a}.twin", twin),
    "text-edited-at-same-size": lambda a, b, twin: b.write_bytes(
        b.read_bytes().replace(b"1", b"2", 1)),
    "truncated-twin": lambda a, b, twin: _truncate(twin, 16 + 8 * 40),
    "twin-with-extra-bytes": lambda a, b, twin: _truncate(twin, 16 + 8 * 820 + 64 + 8),
    "flipped-value-bit": lambda a, b, twin: _flip_bit(twin, 16 + 8 * 100),
    "flipped-magic-bit": lambda a, b, twin: _flip_bit(twin, 0),
    "missing-twin": lambda a, b, twin: twin.unlink(),
    "twin-is-a-directory": lambda a, b, twin: _replace_by_directory(twin),
    "version-1-twin": lambda a, b, twin: _version_1_twin(b, twin),
    "flipped-checksum-bit": lambda a, b, twin: _flip_bit(twin, 16 + 8 * 820),
}


@pytest.mark.parametrize("spoil", SPOILS.values(), ids=SPOILS.keys())
def test_stale_or_broken_twin_falls_back_to_the_text(tmp_path, spoil):
    a, b = _gram_pair(tmp_path)
    spoil(a, b, tmp_path / "b.csv.twin")
    assert _load_gram(b).tobytes() == _parsed(b).tobytes()


def test_twin_beside_a_bad_gram_file_gives_its_exit_code(tmp_path, capsys):
    # a twin copied beside a file it is not the twin of: the text's own fault counts
    a, b = _gram_pair(tmp_path)
    b.write_text("1.0,0.5\n0.9,1.0\n")
    shutil.copy(f"{a}.twin", f"{b}.twin")
    out = tmp_path / "out.csv"
    assert main(["kpca", str(b), "-o", str(out)]) == 21
    assert "not symmetric" in capsys.readouterr().err
    assert not out.exists()


def test_twin_header_claiming_a_huge_n_allocates_nothing(tmp_path):
    a, _ = _gram_pair(tmp_path)
    twin = tmp_path / "a.csv.twin"
    for n in (2**64 - 1, 2**32, 10_000):  # 10,000 x 10,000 doubles would be 763 MiB
        twin.write_bytes(np.array([TWIN_MAGIC, n], dtype=np.uint64).tobytes() + twin.read_bytes()[16:])
        tracemalloc.start()
        try:
            gram = _load_gram(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gram.tobytes() == _parsed(a).tobytes()
        assert peak < 2**20, peak


def test_cluster_and_kpca_outputs_do_not_depend_on_the_twin(tmp_path):
    _, data = _dataset(tmp_path, 150)
    gram = tmp_path / "g.csv"
    assert main(["gram", str(data), "-o", str(gram)]) == 0
    outputs = []
    for _ in range(2):
        assert main(["cluster", str(gram), "-o", str(tmp_path / "labels.csv"),
                     "--k-range", "2", "5", "--restarts", "3"]) == 0
        assert main(["kpca", str(gram), "-o", str(tmp_path / "coords.csv"), "-d", "2",
                     "--labels", str(tmp_path / "labels.csv")]) == 0
        outputs.append({path.name: path.read_bytes() for path in sorted(tmp_path.iterdir())})
        (tmp_path / "g.csv.twin").unlink(missing_ok=True)
    assert outputs[0].pop("g.csv.twin") and outputs[0] == outputs[1]
