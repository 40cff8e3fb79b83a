"""Fuzz the commands that read data files.

Every input, however malformed, must end in a documented exit code with no
traceback, a command that fails must leave no output file behind, and a
command that succeeds must write only finite numbers.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from depcon.cli import main  # noqa: E402
from depcon.dataset import _TWIN_CHECK_BYTES  # noqa: E402

# success, missing file, other I/O, usage, and the validation errors
DOCUMENTED = {0, 2, 3, 4, *range(10, 25), 26, 27}

FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)

CELLS = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(
        ["", " ", "x", "1_0", "1e999", "-0", '"1"', '"0.5', "0x1", "\u0661", "\ufeff1",
         "1.5", "1e300", "nan", "-inf", "\t2 "]
    ),
)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\n \n"])
CSV_TEXT = st.builds(
    lambda rows, end: end.join(",".join(row) for row in rows).encode(),
    st.lists(st.lists(CELLS, max_size=4), max_size=6),
    LINE_ENDS,
)

# well-formed numeric datasets at the edges of float64: cells near +-1.8e308,
# subnormals, a column of distinct values across the whole exponent range,
# near-constant columns
EDGE_CELLS = st.sampled_from(
    [1.7976931348623157e308, -1.7976931348623157e308, 1e308, -9e307, 5e-324, -5e-324,
     2.2250738585072014e-308, 1e-310, 0.0, -0.0, 1.0, 1e10]
)
SPREAD = [sign * math.ldexp(1.0, e) for e in range(-1074, 1024, 97) for sign in (1, -1)]


def _column(n):
    return st.one_of(
        st.lists(st.floats(allow_nan=False, allow_infinity=False) | EDGE_CELLS,
                 min_size=n, max_size=n),
        st.lists(st.sampled_from(SPREAD), min_size=n, max_size=n, unique=True),
        (st.floats(allow_nan=False, allow_infinity=False) | EDGE_CELLS).map(
            lambda c: [c] * (n - 1) + [math.nextafter(c, math.inf)]
        ),
    )


NUMERIC_CSV = st.integers(2, 8).flatmap(
    lambda n: st.lists(_column(n), min_size=1, max_size=3)
).map(lambda columns: "".join(",".join(map(repr, row)) + "\n" for row in zip(*columns)).encode())

JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
    st.sampled_from([10**400, -(2**63), 2**63]),
)
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=16)
NUMBER_ROWS = st.lists(st.lists(st.floats(-2, 2) | st.integers(-2, 2), max_size=4), max_size=5)


def json_text(key):
    """JSON documents near the shape a reader of ``key`` expects, some cut short."""
    doc = st.one_of(
        JSON_VALUES,
        st.builds(lambda value: {key: value}, JSON_VALUES),
        st.builds(lambda rows: {key: rows, "feature_names": ["a", "b"]}, NUMBER_ROWS),
    ).map(lambda value: json.dumps(value).encode())
    return doc | st.builds(lambda text, cut: text[:cut], doc, st.integers(0, 40))


def files(key):
    """A file's suffix and bytes: raw bytes, near-CSV text or near-JSON text."""
    return st.tuples(
        st.sampled_from([".csv", ".json"]),
        st.one_of(st.binary(max_size=80), CSV_TEXT, json_text(key)),
    )


def dataset_files():
    """``files("rows")``, and numeric CSV datasets at the edges of float64."""
    return files("rows") | st.tuples(st.just(".csv"), NUMERIC_CSV)


VERTICES = st.one_of(st.integers(-1, 5), JSON_LEAVES)
EDGE = st.one_of(
    st.tuples(st.integers(-1, 5), st.integers(-1, 5), st.sampled_from(["--", "->", "<-", "<->", "x"])),
    JSON_VALUES,
)
GRAPHS = st.builds(
    lambda vertices, edges: {"vertices": vertices, "edges": edges},
    VERTICES,
    st.lists(EDGE, max_size=5) | JSON_VALUES,
).map(lambda graph: json.dumps(graph).encode())


def graph_files():
    """Raw bytes, near-JSON text, and graph documents near the expected shape, some cut short."""
    return st.tuples(
        st.just(".json"),
        st.one_of(
            st.binary(max_size=80),
            json_text("vertices"),
            GRAPHS,
            st.builds(lambda text, cut: text[:cut], GRAPHS, st.integers(0, 40)),
        ),
    )


def _numbers(path):
    """Every number an output file holds: a Gram twin's float64 values (between
    its 16-byte header and its checksum), JSON numbers, or CSV cells that
    parse as floats."""
    if path.suffix == ".twin":
        values = path.read_bytes()[16:-_TWIN_CHECK_BYTES]
        return np.frombuffer(values, dtype=np.float64).tolist()
    text = path.read_text()
    try:
        stack = [json.loads(text)]  # json reads NaN and Infinity as floats
    except ValueError:
        stack = text.replace("\n", ",").split(",")
    found = []
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
        elif isinstance(value, str):
            with contextlib.suppress(ValueError):
                found.append(float(value))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            found.append(value)
    return found


def _check(build_argv, suffix, content):
    """Run the command ``build_argv`` makes with the fuzzed file and fixed others."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        fuzzed = tmp / f"input{suffix}"
        fuzzed.write_bytes(content)
        gram = tmp / "gram.csv"
        gram.write_text("1.0,0.5,0.2\n0.5,1.0,0.3\n0.2,0.3,1.0\n")
        pred = tmp / "pred.csv"
        pred.write_text("0\n1\n1\n")
        out = tmp / "out.csv"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([str(a) for a in build_argv(fuzzed, gram, pred, out)])
        assert code in DOCUMENTED
        assert "Traceback" not in stderr.getvalue()
        inputs = {fuzzed, gram, pred}
        if code != 0:  # no output, sidecar or temporary is left
            assert set(tmp.iterdir()) == inputs
            return
        for path in tmp.iterdir():
            if path not in inputs:
                assert all(math.isfinite(v) for v in _numbers(path)), path.name


# inputs that once escaped as tracebacks: a lone carriage return ends a line,
# an integer beyond the float range, a label beyond the int64 range
CR_LINES = (".csv", b"\r0.0\r1.0")
BIG = b"1" + b"0" * 400
HUGE_INT = (".json", b'{"values": [[1, %s], [%s, 1]], "rows": [[%s, 1], [1, 1]]}' % (BIG, BIG, BIG))
HUGE_LABEL = (".csv", b"9223372036854775808\n")


# a column whose spread overflows float64 once gave an all-NaN Gram and NaN statistics
OVERFLOW = (".csv", b"1e308,1\n-1e308,2\n0,4\n5e307,3\n")

# JSON nested deeper than the decoder's recursion limit once escaped the labels reader
DEEP = (".json", b"[" * 200_000)


@FUZZ
@given(dataset_files())
@example(CR_LINES)
@example(HUGE_INT)
@example(OVERFLOW)
@example(DEEP)
def test_gram_reads_any_dataset_file(file):
    _check(lambda data, gram, pred, out: ("gram", data, "-o", out), *file)


@FUZZ
@given(dataset_files())
@example(CR_LINES)
@example(OVERFLOW)
@example(DEEP)
def test_indep_reads_any_dataset_file(file):
    _check(lambda data, gram, pred, out: ("indep", data, "-o", out), *file)


@FUZZ
@given(dataset_files())
@example(CR_LINES)
@example(OVERFLOW)
@example(DEEP)
def test_test_reads_any_dataset_file(file):
    _check(lambda data, gram, pred, out: ("test", data, data, "-o", out), *file)


@FUZZ
@given(files("values"))
@example(CR_LINES)
@example(HUGE_INT)
@example(DEEP)
def test_cluster_reads_any_gram_file(file):
    _check(lambda data, gram, pred, out: ("cluster", data, "-o", out, "-k", 2), *file)


@FUZZ
@given(files("labels"))
@example(CR_LINES)
@example(HUGE_LABEL)
@example(DEEP)
def test_kpca_reads_any_labels_file(file):
    _check(
        lambda data, gram, pred, out: ("kpca", gram, "-o", out, "-d", 1, "--labels", data),
        *file,
    )


@FUZZ
@given(files("labels"))
@example(CR_LINES)
@example(HUGE_LABEL)
@example(DEEP)
def test_eval_reads_any_truth_file(file):
    _check(lambda data, gram, pred, out: ("eval", pred, "--truth", data, "-o", out), *file)


@FUZZ
@given(graph_files())
@example((".json", b"\xff\xfe{}"))
@example((".json", b'{"vertices": %s}' % BIG))
@example(DEEP)
def test_graphdist_reads_any_graph_file(file):
    _check(lambda data, gram, pred, out: ("graphdist", data, data, "-o", out), *file)
