import io

import numpy as np
import pytest

from depcon.dataset import Dataset, load_dataset, load_dataset_json
from depcon.errors import (
    NonFiniteValueError,
    NonNumericCellError,
    RaggedRowsError,
    TooFewFeaturesError,
    TooFewSamplesError,
)


def test_minimal_parse_with_header():
    ds = load_dataset(io.StringIO("a,b\n0,1\n1,0\n"), has_header=True)
    assert ds.n == 2 and ds.m == 2
    assert ds.feature_names == ("a", "b")
    assert np.array_equal(ds.values, [[0.0, 1.0], [1.0, 0.0]])


def test_non_numeric_cell_coordinates():
    with pytest.raises(NonNumericCellError) as err:
        load_dataset(io.StringIO("0,1\n1,x\n"))
    assert err.value.row == 1 and err.value.col == 1


def test_gene_expression_layout():
    rng = np.random.default_rng(0)
    body = "\n".join(",".join(f"{v:.4f}" for v in row) for row in rng.normal(size=(517, 11)))
    ds = load_dataset(io.StringIO(body + "\n"))
    assert ds.n == 517 and ds.m == 11


def test_ragged_rows():
    with pytest.raises(RaggedRowsError):
        load_dataset(io.StringIO("0,1\n1,2,3\n"))


def test_too_few_samples_and_features():
    with pytest.raises(TooFewSamplesError):
        load_dataset(io.StringIO("0,1\n"))
    with pytest.raises(TooFewFeaturesError):
        load_dataset(io.StringIO("0\n1\n"))


def test_non_finite_rejected():
    with pytest.raises(NonFiniteValueError):
        load_dataset(io.StringIO("0,1\n1,inf\n"))
    with pytest.raises(NonFiniteValueError):
        Dataset(np.array([[0.0, 1.0], [np.nan, 0.0]]))


def test_header_sniffing_not_applied_without_flag():
    with pytest.raises(NonNumericCellError):
        load_dataset(io.StringIO("a,b\n0,1\n1,0\n"), has_header=False)


def test_json_roundtrip():
    text = '{"rows": [[1.0, 2.0], [3.0, 4.0]], "feature_names": ["x", "y"]}'
    again = load_dataset_json(io.StringIO(text))
    assert again.feature_names == ("x", "y")
    assert np.array_equal(again.values, [[1.0, 2.0], [3.0, 4.0]])


def test_csv_roundtrip():
    again = load_dataset(io.StringIO("u,v\n1.5,-2.0\n0.25,4.0\n3.0,0.0\n"), has_header=True)
    assert again.feature_names == ("u", "v")
    assert np.array_equal(again.values, [[1.5, -2.0], [0.25, 4.0], [3.0, 0.0]])


def test_explicit_header_is_the_first_filled_row():
    ds = load_dataset(io.StringIO("\n \nx,y\n\n0,1\n1,0\n"), has_header=True)
    assert ds.feature_names == ("x", "y")
    assert np.array_equal(ds.values, [[0, 1], [1, 0]])
    ds = load_dataset(io.StringIO("\n7,8\n0,1\n1,0\n"), has_header=True)
    assert ds.feature_names == ("7", "8") and ds.n == 2


def test_whitespace_lines_skipped_and_header_width_checked():
    ds = load_dataset(io.StringIO("0,1\n   \n1,0\n\t\n"))
    assert ds.n == 2
    with pytest.raises(RaggedRowsError) as err:
        load_dataset(io.StringIO("a,b,c\n0,1\n1,0\n"), has_header=True)
    assert err.value.row == "header"


def test_non_numeric_reported_before_non_finite():
    with pytest.raises(NonNumericCellError) as err:
        load_dataset(io.StringIO("inf,1\n1,x\n"))
    assert (err.value.row, err.value.col) == (1, 1)
    with pytest.raises(NonNumericCellError):
        load_dataset_json(io.StringIO('{"rows": [[NaN, 1], [1, "x"]]}'))


@pytest.mark.parametrize(
    "text, error",
    [
        ('{"rows": [[1, 2], [3, true]]}', NonNumericCellError),
        ('{"rows": [[1, 2], [3, null]]}', NonNumericCellError),
        ('{"rows": [[1, 2], [3, Infinity]]}', NonFiniteValueError),
        ('{"rows": [[1, 2], [3, 1e999]]}', NonFiniteValueError),
        ('{"rows": [[1, 2], [3, 1' + "0" * 400 + "]]}", NonFiniteValueError),
    ],
    ids=["true", "null", "Infinity", "1e999", "integer-beyond-float64"],
)
def test_json_cells_must_be_finite_numbers(text, error):
    with pytest.raises(error):
        load_dataset_json(io.StringIO(text))


def test_bytes_streams_are_utf8():
    ds = load_dataset(io.BytesIO(b"0,1\n1,0\n"))
    assert ds.n == 2
    with pytest.raises(TooFewSamplesError):
        load_dataset(io.BytesIO(b"0,1\n1,\xff\n"))
