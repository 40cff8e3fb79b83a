import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import depcon
from depcon.clustering import kernel_kmeans, silhouette_score, variance_ratio_criterion
from depcon.dataset import _load_any_dataset, _load_gram, _load_labels, _read_table
from depcon.embedding import kpca_fit, kpca_transform
from depcon.graphs import graph_from_json
from depcon.cli import (
    _cells,
    _csv_outputs,
    _json_chunks,
    _json_text,
    _matrix_rows,
    _one_blas_thread,
    _openblas_threads,
    _publish,
    main,
)
from depcon.errors import (
    ConstantFeatureError,
    DegenerateLabelsError,
    DimensionMismatchError,
    GramRangeError,
    InvalidGraphError,
    LengthMismatchError,
    NonFiniteValueError,
    NonNumericCellError,
    NotSquareError,
    NotSymmetricError,
    OutOfRangeError,
    RaggedRowsError,
    TooFewFeaturesError,
    TooFewSamplesError,
)


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def bench(tmp_path):
    data = tmp_path / "bench.csv"
    code = run("synth", "-o", data, "--models", "4", "--samples", "25",
               "--features", "5", "--seed", "3")
    assert code == 0
    return data


def test_synth_outputs(bench, tmp_path):
    sidecar = json.loads((tmp_path / "bench.json").read_text())
    assert len(sidecar["labels"]) == 100
    assert len(sidecar["models"]) == 4
    assert sidecar["config"]["num_features"] == 5
    rows = (tmp_path / "bench.csv").read_text().strip().split("\n")
    assert len(rows) == 100 and len(rows[0].split(",")) == 5
    prov = json.loads((tmp_path / "bench.csv.provenance.json").read_text())
    assert prov["command"] == "synth" and "version" in prov


def test_synth_rerun_byte_identical(bench, tmp_path):
    first = bench.read_bytes()
    assert run("synth", "-o", bench, "--models", "4", "--samples", "25",
               "--features", "5", "--seed", "3") == 0
    assert bench.read_bytes() == first


def test_gram_csv_and_json(bench, tmp_path):
    gram_csv = tmp_path / "gram.csv"
    assert run("gram", bench, "-o", gram_csv) == 0
    matrix = np.loadtxt(gram_csv, delimiter=",")
    assert matrix.shape == (100, 100)
    assert np.allclose(np.diagonal(matrix), 1.0)
    gram_json = tmp_path / "gram.json"
    assert run("gram", bench, "-o", gram_json) == 0
    payload = json.loads(gram_json.read_text())
    assert payload["provenance"]["config"]["alpha"] == 0.1
    # the streamed JSON is byte for byte one json.dumps of the whole Gram; the
    # CSV holds round-trip reprs, so it gives back the Gram's exact values
    expected = {"values": matrix.tolist(), "provenance": payload["provenance"]}
    assert gram_json.read_bytes() == _json_dumps_file(expected)


def _json_dumps_file(payload):
    """The bytes of a JSON output written in one piece, as ``_json_chunks`` streams it."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize(
    "matrix",
    [
        np.eye(2),
        np.array([[1.0, 0.0], [-0.0, 1.0]]),  # a -0.0 / 0.0 mirror is not symmetric bit for bit
        np.random.default_rng(5).standard_normal((4, 4)),
        np.zeros((0, 3)),
    ],
    ids=["symmetric", "signed-zero", "asymmetric", "empty"],
)
def test_gram_json_writer_matches_one_piece_dump(tmp_path, matrix):
    provenance = {"command": "gram", "config": {"data": "d\u00e9.csv"}}
    # the rows as depcon gram streams them to a .json name
    rows = (b"[\n      " + row + b"\n    ]" for row in _matrix_rows(matrix, b",\n      "))
    _publish((tmp_path / "g.json", _json_chunks({"provenance": provenance}, rows={"values": rows})))
    expected = _json_dumps_file({"values": matrix.tolist(), "provenance": provenance})
    assert (tmp_path / "g.json").read_bytes() == expected


def test_gram_thread_count_invariant(bench, tmp_path):
    out1, out2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
    assert run("gram", bench, "-o", out1, "--threads", "1") == 0
    assert run("gram", bench, "-o", out2, "--threads", "4") == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.fixture(scope="module")
def pipeline_900(tmp_path_factory):
    """The benchmark pipeline's dataset (6 models x 150 samples, m = 8) and its Gram file."""
    root = tmp_path_factory.mktemp("pipeline_900")
    data, gram = root / "data.csv", root / "gram.csv"
    assert run("synth", "-o", data, "--models", 6, "--samples", 150, "--features", 8,
               "--nonlinear", "--seed", 1) == 0
    assert run("gram", data, "-o", gram) == 0
    return root


@pytest.mark.parametrize(
    "command, bound",
    [
        # the unit vectors, one band of the Gram, its rows whole, and the
        # mirror cells still to be written, at most n^2 / 4 doubles
        (("gram", "data.csv", "-o", "out.csv"), 1.7),
        # the same, with the JSON rows written as they are formed
        (("gram", "data.csv", "-o", "out.json"), 1.7),
        # the Gram; HKH is formed a row block at a time, and the rest is O(n) or one block
        (("cluster", "gram.csv", "-o", "out.csv", "--k-range", 2, 8, "--restarts", 3), 2.0),
        (("kpca", "gram.csv", "-o", "out.csv", "-d", 2, "--labels", "data.json"), 2.0),
    ],
    ids=["gram", "gram-json", "cluster", "kpca"],
)
def test_command_peak_memory(pipeline_900, command, bound):
    # Python allocations traced while the command runs, in units of one n x n float64 array
    argv = [pipeline_900 / a if str(a).endswith((".csv", ".json")) else a for a in command]
    tracemalloc.start()
    try:
        assert run(*argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * 900 * 900 * 8


def test_gram_missing_file_exit_code(tmp_path):
    assert run("gram", tmp_path / "nope.csv", "-o", tmp_path / "out.csv") == 2


def test_gram_constant_column_exit_code(tmp_path, capsys):
    path = tmp_path / "const.csv"
    path.write_text("1,5\n2,5\n3,5\n")
    assert run("gram", path, "-o", tmp_path / "out.csv") == ConstantFeatureError.exit_code
    assert "feature 1" in capsys.readouterr().err


def test_indep_json(bench, tmp_path):
    out = tmp_path / "indep.json"
    assert run("indep", bench, "-o", out) == 0
    payload = json.loads(out.read_text())
    assert payload["alpha"] == 0.1
    assert len(payload["pairs"]) == 5 * 4 // 2
    assert {"i", "j", "reject", "statistic"} <= set(payload["pairs"][0])


def test_test_command_self_comparison(bench, tmp_path):
    out = tmp_path / "verdict.json"
    assert run("test", bench, bench, "-o", out) == 0
    payload = json.loads(out.read_text())
    assert payload["different_structure"] is False
    assert payload["witnesses"] == []


def test_test_command_dimension_mismatch(bench, tmp_path):
    other = tmp_path / "other.csv"
    assert run("synth", "-o", other, "--models", "2", "--samples", "10",
               "--features", "4", "--seed", "1") == 0
    code = run("test", bench, other, "-o", tmp_path / "v.json")
    assert code == DimensionMismatchError.exit_code


def test_cluster_kpca_eval_pipeline(bench, tmp_path):
    gram = tmp_path / "gram.csv"
    labels = tmp_path / "labels.csv"
    report = tmp_path / "report.json"
    coords = tmp_path / "coords.csv"
    evaluation = tmp_path / "eval.json"
    assert run("gram", bench, "-o", gram) == 0
    assert run("cluster", gram, "-o", labels, "--k-range", "2", "6",
               "--restarts", "3", "--seed", "5", "--report", report) == 0
    label_values = [int(line) for line in labels.read_text().split()]
    assert len(label_values) == 100
    payload = json.loads(report.read_text())
    assert payload["criterion_space"] == "kernel"
    assert str(payload["best_k"]) in payload["scores"]
    assert run("kpca", gram, "-o", coords, "-d", "2",
               "--labels", tmp_path / "bench.json") == 0
    lines = coords.read_text().strip().split("\n")
    assert lines[0] == "component_0,component_1,label"
    assert len(lines) == 101
    assert run("eval", labels, "--truth", tmp_path / "bench.json",
               "-o", evaluation) == 0
    scores = json.loads(evaluation.read_text())
    assert 0 <= abs(scores["mean_ari"]) <= 1
    assert scores["per_input"][0]["name"] == "labels.csv"


def test_cluster_fixed_k(bench, tmp_path):
    gram = tmp_path / "gram.csv"
    labels = tmp_path / "labels.csv"
    assert run("gram", bench, "-o", gram) == 0
    assert run("cluster", gram, "-o", labels, "-k", "4", "--seed", "2") == 0
    assert len(set(labels.read_text().split())) <= 4


@pytest.mark.parametrize(
    "criterion, score", [("vrc", variance_ratio_criterion), ("silhouette", silhouette_score)]
)
def test_cluster_fixed_k_matches_library(bench, tmp_path, criterion, score):
    gram = tmp_path / "gram.csv"
    labels = tmp_path / "labels.csv"
    assert run("gram", bench, "-o", gram) == 0
    assert run("cluster", gram, "-o", labels, "-k", "4", "--criterion", criterion,
               "--seed", "2", "--restarts", "3") == 0
    values = _load_gram(gram)
    expected = kernel_kmeans(values, 4, seed=2, restarts=3).labels
    got = np.array([int(line) for line in labels.read_text().split()])
    assert np.array_equal(got, expected)
    report = json.loads((tmp_path / "labels.csv.report.json").read_text())
    assert report["best_k"] == 4
    assert report["scores"] == {"4": score(values, expected)}


def test_cluster_vrc_k_equal_n_refused_before_kmeans(tmp_path, monkeypatch, capsys):
    # VRC scores no partition into n clusters, so -k n fails before any restart
    # runs; the silhouette scores one (every point its own cluster)
    gram, labels = tmp_path / "gram.csv", tmp_path / "labels.csv"
    values = depcon.gram_matrix(np.random.default_rng(4).random((6, 3))).values
    _publish(*_csv_outputs(gram, _matrix_rows(values, b","), {}))
    best_of_restarts = depcon.clustering._best_of_restarts
    calls = []

    def spy(y, s, k, *rest):
        calls.append(k)
        return best_of_restarts(y, s, k, *rest)

    monkeypatch.setattr(depcon.clustering, "_best_of_restarts", spy)
    assert run("cluster", gram, "-o", labels, "-k", 6) == DegenerateLabelsError.exit_code
    assert "need k < n, got k=6, n=6" in capsys.readouterr().err
    assert calls == [] and not labels.exists()
    assert run("cluster", gram, "-o", labels, "-k", 6, "--criterion", "silhouette") == 0
    assert calls == [6] and sorted(map(int, labels.read_text().split())) == list(range(6))


@pytest.mark.parametrize("with_labels", [False, True], ids=["coords", "labelled"])
def test_kpca_csv_bytes(bench, tmp_path, with_labels):
    gram, coords = tmp_path / "gram.csv", tmp_path / "coords.csv"
    assert run("gram", bench, "-o", gram) == 0
    extra = ("--labels", tmp_path / "bench.json") if with_labels else ()
    assert run("kpca", gram, "-o", coords, "-d", 3, *extra) == 0
    with _one_blas_thread():  # as the command runs
        expected = kpca_transform(kpca_fit(_load_gram(gram), 3))
    header = ["component_0", "component_1", "component_2"]
    lines = [[repr(float(v)) for v in row] for row in expected]
    if with_labels:
        header.append("label")
        truth = json.loads((tmp_path / "bench.json").read_text())["labels"]
        lines = [line + [str(label)] for line, label in zip(lines, truth)]
    text = "".join(",".join(line) + "\n" for line in [header] + lines)
    assert coords.read_bytes() == text.encode()


def test_pipeline_rerun_with_threads_byte_identical(bench, tmp_path):
    gram = tmp_path / "gram.csv"
    labels = tmp_path / "labels.csv"
    blobs = []
    for threads in ("1", "3"):
        assert run("gram", bench, "-o", gram, "--threads", threads) == 0
        assert run("cluster", gram, "-o", labels, "--k-range", "2", "4",
                   "--restarts", "2", "--seed", "7") == 0
        blobs.append(gram.read_bytes() + labels.read_bytes())
    assert blobs[0] == blobs[1]


def test_graphdist_command(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"vertices": 2, "edges": [[0, 1, "<->"]]}))
    b.write_text(json.dumps({"vertices": 2, "edges": []}))
    out = tmp_path / "dist.json"
    assert run("graphdist", a, b, "-o", out) == 0
    payload = json.loads(out.read_text())
    assert payload["distance"] == 2


@pytest.mark.parametrize(
    "text",
    [
        "{",
        '{"edges": []}',
        '{"vertices": 1e999}',
        '{"vertices": 2, "edges": [[0, 1]]}',
        '{"vertices": 2, "edges": [[0, "b", "->"]]}',
        '{"vertices": 2, "edges": 5}',
        "[2]",
        b"\xff\xfe{}",
        '{"vertices": 1e300}',
        pytest.param("[" * 100_000, id="deeply-nested"),
        '{"vertices": 3, "edges": [[0, 1.5, "->"]]}',
        '{"vertices": 2.9}',
        '{"vertices": "3"}',
        '{"vertices": true}',
        '{"vertices": 3, "edges": [[true, 2, "->"]]}',
        '{"vertices": 3, "edges": [[0, "1", "->"]]}',
    ],
)
def test_graphdist_malformed_graph_exit_code(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "dist.json"
    assert run("graphdist", bad, bad, "-o", out) == InvalidGraphError.exit_code
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("second", [[0, 1, "<->"], [1, 0, "<->"]], ids=["same-order", "mirrored"])
def test_graph_pair_given_two_types_rejected(tmp_path, capsys, second):
    payload = {"vertices": 2, "edges": [[0, 1, "->"], second]}
    with pytest.raises(InvalidGraphError, match=r"conflicting edge types for pair \(0, 1\)"):
        graph_from_json(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "dist.json"
    assert run("graphdist", bad, bad, "-o", out) == InvalidGraphError.exit_code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("depcon graphdist: conflicting edge types")
    assert not out.exists()


def test_graph_pair_repeated_with_one_type_accepted():
    graph = graph_from_json({"vertices": 2, "edges": [[0, 1, "->"], [0, 1, "->"], [1, 0, "<-"]]})
    assert graph.edges == {(0, 1): "->"}


def test_graphdist_accepts_integral_float_vertices(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text('{"vertices": 3.0, "edges": [[0, 1.0, "->"], [2, 1, "->"]]}')
    out = tmp_path / "dist.json"
    assert run("graphdist", graph, graph, "-o", out) == 0
    assert json.loads(out.read_text())["connected_a"] == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def test_graphdist_writes_each_relation_row_on_one_line(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text('{"vertices": 3, "edges": [[0, 1, "->"], [2, 1, "->"]]}')
    out = tmp_path / "dist.json"
    assert run("graphdist", graph, graph, "-o", out) == 0
    text = out.read_text()
    assert '  "connected_a": [\n    [0, 1, 0],\n    [1, 0, 1],\n    [0, 1, 0]\n  ],\n' in text
    assert '  "connected_b": [\n    [0, 1, 0],\n    [1, 0, 1],\n    [0, 1, 0]\n  ],\n' in text
    # the keys after the relations keep the layout of every other JSON output
    rest = {key: value for key, value in json.loads(text).items() if not key.startswith("connected")}
    assert text.endswith(json.dumps(rest, indent=2, sort_keys=True)[2:] + "\n")


def _timed_graphdist(tmp_path, m, edges):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"vertices": m, "edges": edges}))
    out = tmp_path / "dist.json"
    started = time.perf_counter()
    assert run("graphdist", graph, graph, "-o", out) == 0
    elapsed = time.perf_counter() - started
    payload = json.loads(out.read_text())
    assert payload["distance"] == 0
    return np.array(payload["connected_a"], dtype=bool), elapsed


def test_graphdist_scales_to_1000_vertex_chain(tmp_path):
    m = 1000
    connected, elapsed = _timed_graphdist(tmp_path, m, [[v, v + 1, "->"] for v in range(m - 1)])
    assert np.array_equal(connected, ~np.eye(m, dtype=bool))
    assert elapsed < 60.0


def test_graphdist_scales_to_1000_vertex_dense_dag(tmp_path):
    # every source points at every sink: 250,000 edges; sinks share parents,
    # sources meet only at colliders
    m, half = 1000, 500
    edges = [[s, t, "->"] for s in range(half) for t in range(half, m)]
    connected, elapsed = _timed_graphdist(tmp_path, m, edges)
    expected = ~np.eye(m, dtype=bool)
    expected[:half, :half] = False
    assert np.array_equal(connected, expected)
    assert elapsed < 60.0


def test_eval_csv_format(bench, tmp_path):
    gram = tmp_path / "gram.csv"
    labels = tmp_path / "labels.csv"
    assert run("gram", bench, "-o", gram) == 0
    assert run("cluster", gram, "-o", labels, "-k", "4", "--seed", "2") == 0
    out = tmp_path / "eval.csv"
    assert run("eval", labels, "--truth", tmp_path / "bench.json",
               "-o", out) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "name,ari,k"


def test_eval_csv_quotes_names_and_keeps_their_bytes(bench, tmp_path):
    # a name holding a comma and a quote is quoted; one that is not UTF-8 is
    # written as the file system gave its bytes
    truth = tmp_path / "bench.json"
    names = ['a,"b".csv', os.fsdecode(b"p\xff.csv")]
    for name in names:
        (tmp_path / name).write_text("0\n1\n" * 50)
    out = tmp_path / "eval.csv"
    assert run("eval", *(tmp_path / name for name in names), "--truth", truth,
               "-o", out) == 0
    ari = repr(float(depcon.adjusted_rand_index(_load_labels(truth), np.tile([0, 1], 50))))
    assert out.read_bytes() == (
        b'name,ari,k\n"a,""b"".csv",%s,2\np\xff.csv,%s,2\n' % (ari.encode(), ari.encode())
    )


@pytest.mark.parametrize("name", ["g.json", "G.JSON"])
def test_gram_json_by_name_is_read_back(bench, tmp_path, name):
    # a .json name, in any case, is written as JSON and read as JSON; cluster
    # and kpca on it match the CSV route byte for byte
    gram = tmp_path / name
    assert run("gram", bench, "-o", gram) == 0
    assert run("gram", bench, "-o", tmp_path / "g.csv") == 0
    payload = json.loads(gram.read_text())
    assert "format" not in payload["provenance"]["config"]
    assert not (tmp_path / f"{name}.provenance.json").exists()
    outputs = {}
    for source in (gram, tmp_path / "g.csv"):
        labels, coords = tmp_path / "labels.csv", tmp_path / "coords.csv"
        assert run("cluster", source, "-o", labels, "-k", 4, "--seed", 2) == 0
        assert run("kpca", source, "-o", coords, "-d", 2) == 0
        outputs[source] = labels.read_bytes(), coords.read_bytes()
    assert outputs[gram] == outputs[tmp_path / "g.csv"]


def test_eval_to_a_name_without_json_writes_csv(bench, tmp_path):
    truth = tmp_path / "bench.json"
    out = tmp_path / "e.txt"
    assert run("eval", truth, "--truth", truth, "-o", out) == 0
    assert out.read_bytes() == b"name,ari,k\nbench.json,1.0,4\n"
    config = json.loads((tmp_path / "e.txt.provenance.json").read_text())["config"]
    assert config["output"] == str(out) and "format" not in config


@pytest.mark.parametrize(
    "argv",
    [
        ("gram", "bench.csv", "-o", "out.json", "--format", "json"),
        ("eval", "bench.json", "--truth", "bench.json", "-o", "out.csv", "--format", "csv"),
    ],
    ids=["gram", "eval"],
)
def test_format_option_is_gone(bench, tmp_path, capsys, argv):
    before = sorted(tmp_path.iterdir())
    argv = [tmp_path / a if str(a).endswith((".csv", ".json")) else a for a in argv]
    assert run(*argv) == 4  # usage
    assert "unrecognized arguments: --format" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "argv",
    [
        ("gram", "bench.csv", "-o", "out.csv", "--convention", "szekely"),
        ("indep", "bench.csv", "-o", "out.json", "--convention", "chi2-over-n"),
        ("test", "bench.csv", "bench.csv", "-o", "out.json", "--convention", "szekely"),
        ("test", "bench.csv", "bench.csv", "-o", "out.json", "--both-conventions"),
    ],
    ids=["gram", "indep", "test", "both-conventions"],
)
def test_convention_options_are_gone(bench, tmp_path, capsys, argv):
    before = sorted(tmp_path.iterdir())
    argv = [tmp_path / a if str(a).endswith((".csv", ".json")) else a for a in argv]
    assert run(*argv) == 4  # usage
    option = next(a for a in argv if str(a).startswith("--"))
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "depcon", "--version"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "depcon" in result.stdout


def test_silhouette_report_independent_of_blas_threads(tmp_path):
    # n = 1,020 is a size at which an n x n x k BLAS product of the
    # silhouette's cluster sums rounded differently under 1 and 2 threads
    data = tmp_path / "bench.csv"
    gram = tmp_path / "gram.csv"
    assert run("synth", "-o", data, "--models", "6", "--samples", "170",
               "--features", "8", "--nonlinear", "--seed", "1") == 0
    assert run("gram", data, "-o", gram) == 0
    source = str(os.path.dirname(os.path.dirname(depcon.__file__)))
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "depcon", "cluster", str(gram), "-o",
             str(tmp_path / "labels.csv"), "--criterion", "silhouette",
             "--k-range", "2", "6", "--seed", "1"],
            capture_output=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        reports.append((tmp_path / "labels.csv.report.json").read_bytes())
    assert reports[0] == reports[1]


def test_pipeline_outputs_independent_of_blas_threads(tmp_path):
    # at n = 900 (6 x 150, m = 8, seed 1) the Gram product alone rounded 272
    # cells differently under 1 and 2 BLAS threads before commands pinned one
    script = """
from depcon.cli import main
for argv in (
    ["synth", "-o", "data.csv", "--models", "6", "--samples", "150", "--features", "8",
     "--nonlinear", "--seed", "1"],
    ["gram", "data.csv", "-o", "gram.csv"],
    ["cluster", "gram.csv", "-o", "labels.csv", "--k-range", "2", "8", "--restarts", "3",
     "--seed", "1"],
    ["kpca", "gram.csv", "-o", "coords.csv", "-d", "2", "--labels", "data.json"],
    ["eval", "labels.csv", "--truth", "data.json", "-o", "eval.json"],
    ["indep", "data.csv", "-o", "indep.json"],
    ["test", "data.csv", "data.csv", "-o", "test.json"],
):
    assert main(argv) == 0
"""
    source = str(os.path.dirname(os.path.dirname(depcon.__file__)))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        # relative paths, so the provenance blocks name the same files
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, cwd=out)
        assert result.returncode == 0, result.stderr
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    # the twin, gram.csv.twin, is compared with the other files
    assert len(outputs[0]) == 13 and "gram.csv.twin" in outputs[0]
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name


def test_commands_pin_blas_to_one_thread_and_restore(bench, tmp_path, monkeypatch):
    get, put = _openblas_threads()
    seen = []
    original = depcon.cli.cmd_gram

    def cmd_gram(args):
        seen.append(get())
        return original(args)

    monkeypatch.setattr(depcon.cli, "cmd_gram", cmd_gram)
    old = get()
    put(2)
    try:
        assert run("gram", bench, "-o", tmp_path / "g.csv") == 0
        assert run("gram", tmp_path / "missing.csv", "-o", tmp_path / "g.csv") == 2
        assert seen == [1, 1]
        assert get() == 2  # library callers keep their own count
    finally:
        put(old)


def test_missing_blas_setter_warns_once(bench, tmp_path, monkeypatch):
    # a NumPy without its bundled OpenBLAS: commands still run, with one warning
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    _openblas_threads.cache_clear()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("indep", bench, "-o", tmp_path / "a.json") == 0
            assert run("indep", bench, "-o", tmp_path / "b.json") == 0
    finally:
        _openblas_threads.cache_clear()
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "BLAS thread count" in str(caught[0].message)
    pairs = [json.loads((tmp_path / name).read_text())["pairs"] for name in ("a.json", "b.json")]
    assert pairs[0] == pairs[1]


def test_usage_error_exit_code():
    assert run("cluster") == 4


def test_gram_accepts_json_dataset(tmp_path):
    payload = {"feature_names": ["u", "v"], "rows": [[0.0, 1.0], [1.5, 0.2], [2.0, 3.0], [0.7, 1.1]]}
    data = tmp_path / "data.json"
    data.write_text(json.dumps(payload))
    out = tmp_path / "gram.csv"
    assert run("gram", data, "-o", out) == 0
    assert np.loadtxt(out, delimiter=",").shape == (4, 4)


def test_header_csv_accepted_via_sniffing(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("x,y\n0,1\n1,0\n2,4\n")
    out = tmp_path / "gram.csv"
    assert run("gram", data, "-o", out) == 0
    assert np.loadtxt(out, delimiter=",").shape == (3, 3)


def test_header_sniffing_reads_the_first_filled_row(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("\n0,1\n1,0\n2,4\n5,1\n")  # a leading blank line is no header
    ds = _load_any_dataset(data)
    assert ds.n == 4 and ds.feature_names is None
    assert np.array_equal(ds.values, [[0, 1], [1, 0], [2, 4], [5, 1]])
    data.write_text("\n \nx,y\n\n0,1\n1,0\n")
    ds = _load_any_dataset(data)
    assert ds.feature_names == ("x", "y")
    assert np.array_equal(ds.values, [[0, 1], [1, 0]])


@pytest.mark.parametrize(
    "text, error",
    [
        ("1.0,0.5\n0.5,abc\n", NonNumericCellError),
        ("1.0,0.5\n0.5\n", RaggedRowsError),
        ("1.0,0.5\n0.5,nan\n", NonFiniteValueError),
        ("1.0,inf\n0.5,1.0\n", NonFiniteValueError),
        ("", NotSquareError),
        ("\n\n", NotSquareError),
        ("1.0,0.5\n0.9,1.0\n", NotSymmetricError),
        ("1.0,5.0\n5.0,1.0\n", GramRangeError),
    ],
)
@pytest.mark.parametrize("command", ["cluster", "kpca"])
def test_bad_gram_file_exit_codes(tmp_path, capsys, recwarn, command, text, error):
    _assert_gram_rejected(tmp_path, capsys, recwarn, command, "gram.csv", text, error)


@pytest.mark.parametrize(
    "text, error",
    [
        ('{"values": [1.0, 2.0]}', NonNumericCellError),
        ('{"rows": [[1.0, 0.5], [0.5, 1.0]]}', NotSquareError),
        ("[[1.0, 0.5], [0.5, 1.0]]", NotSquareError),
        ("{", NotSquareError),
        (b"\xff\xfe", NotSquareError),
        ('{"values": [[1.0, -1.5], [-1.5, 1.0]]}', GramRangeError),
        ('{"values": [[1.0, "0.5"], [0.5, 1.0]]}', NonNumericCellError),
        ('{"values": [[1.0, true], [true, 1.0]]}', NonNumericCellError),
        ('{"values": [[1.0, 0.5], [0.5]]}', RaggedRowsError),
        ('{"values": []}', NotSquareError),
        ('{"values": [[]]}', NotSquareError),  # no cell: the range check must not raise
    ],
)
@pytest.mark.parametrize("command", ["cluster", "kpca"])
def test_bad_json_gram_file_exit_codes(tmp_path, capsys, recwarn, command, text, error):
    _assert_gram_rejected(tmp_path, capsys, recwarn, command, "gram.json", text, error)


@pytest.mark.parametrize("command", ["cluster", "kpca"])
def test_gram_csv_bad_byte_past_first_buffer_exit_code(tmp_path, capsys, recwarn, command):
    # an identity Gram of 48 rows takes 9 KiB; its last cell holds a byte
    # that is not UTF-8, beyond the first buffer a text reader decodes
    text = "".join(",".join("1.0" if i == j else "0.0" for j in range(48)) + "\n" for i in range(48))
    text = text.encode()[:-4] + b"\xff.0\n"
    assert len(text) > 9000
    _assert_gram_rejected(tmp_path, capsys, recwarn, command, "gram.csv", text, NotSquareError)


def _assert_gram_rejected(tmp_path, capsys, recwarn, command, name, text, error):
    gram = tmp_path / name
    gram.write_bytes(text if isinstance(text, bytes) else text.encode())
    extra = ["-k", "2"] if command == "cluster" else []
    out = tmp_path / "out.csv"
    assert run(command, gram, "-o", out, *extra) == error.exit_code
    assert "Traceback" not in capsys.readouterr().err
    assert not recwarn.list
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        '"1","0.5"\n"0.5","1"\n',
        "1,0.5\r\n0.5,1\r\n",
        "1, 0.5\n\n0.5 ,1",
        "1,0.5\n0.5,1_0e-1\n",  # float() takes digit underscores
        "\n  \n1,0.5\n \t \n0.5,1\n",  # blank and whitespace-only lines are skipped
    ],
)
def test_gram_csv_spellings_parse(tmp_path, text):
    gram = tmp_path / "gram.csv"
    gram.write_bytes(text.encode())
    assert np.array_equal(_load_gram(gram), [[1.0, 0.5], [0.5, 1.0]])


def test_write_matrix_csv_matches_csv_writer_repr(tmp_path):
    specials = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e-5,
                np.nextafter(1.0, 2.0), 1e300, -1.5, 1.0]
    rng = np.random.default_rng(11)
    wide = rng.standard_normal((7, 9))
    wide.flat[: len(specials)] = specials
    wide[3, 4] = wide[4, 3] = wide[0, 0]  # repeated values
    # bitwise symmetric, with mirrored -0.0 and 5e-324 and values repeated across rows
    mirrored = rng.standard_normal((6, 6))
    mirrored[0, 5], mirrored[2, 3] = -0.0, 5e-324
    mirrored[1, 4] = mirrored[0, 2] = mirrored[3, 3] = -1.5
    below = np.tril_indices(6, -1)
    mirrored[below] = mirrored.T[below]
    assert mirrored.tobytes() == mirrored.T.tobytes(order="C")
    one_ulp = mirrored.copy()  # asymmetric by one ulp in one cell
    one_ulp[4, 1] = np.nextafter(one_ulp[4, 1], np.inf)
    zero_pair = mirrored.copy()  # 0.0 mirrored by -0.0
    zero_pair[5, 0] = 0.0
    for matrix in (wide, mirrored, one_ulp, zero_pair, np.array([[-0.0]]), np.zeros((1, 0))):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in matrix:
            writer.writerow([repr(float(v)) for v in row])
        path = tmp_path / "m.csv"
        _publish(*_csv_outputs(path, _matrix_rows(matrix, b","), {"command": "test"}))
        assert path.read_bytes() == buf.getvalue().encode()
        if matrix.size:
            back = _read_table(path, NotSquareError)[1]
            assert back.shape == matrix.shape
            assert back.tobytes() == matrix.tobytes()  # bit-exact, sign of zero included


@pytest.mark.parametrize("sep", [b",", b",\n      "], ids=["csv", "json"])
def test_cells_are_the_joined_reprs(sep):
    # orjson's text stands for repr's only for +-0 and |x| in [1e-4, 1e16);
    # a future orjson that spells any of these otherwise fails here
    rng = np.random.default_rng(35)
    decades = [rng.uniform(1.0, 10.0, 200) * 10.0**e for e in range(-4, 16)]
    powers = [float(f"1e{e}") for e in range(-4, 17)]
    neighbours = [np.nextafter(p, to) for p in powers for to in (0.0, np.inf)]
    kinds = [0.0, -0.0, 1e-5, 9.999999999999999e-05, 1e-300, 5e-324, 2.2250738585072014e-308,
             1e-310, 1e16, 1e300, np.finfo(np.float64).max, np.nan, np.inf, -np.inf]
    cells = np.concatenate([*decades, powers, neighbours, kinds])
    cells = np.concatenate([cells, -cells])
    text = sep.decode()
    for row in (cells, rng.permutation(cells), *cells[:, None]):
        assert _cells(row, sep) == text.join(map(repr, row.tolist())).encode()


@pytest.mark.parametrize(
    "argv",
    [
        ("kpca", "gram.csv", "-o", "out.csv", "--labels", ""),
        ("eval", "labels.csv", "--truth", "", "-o", "out.csv"),
        ("eval", "", "--truth", "labels.csv", "-o", "out.csv"),
    ],
    ids=["kpca-labels", "eval-truth", "eval-predictions"],
)
def test_empty_labels_name_exit_code(tmp_path, monkeypatch, capsys, argv):
    # an empty name is a missing file, not "no labels" (nor Path's ".")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gram.csv").write_text("1.0,0.5\n0.5,1.0\n")
    (tmp_path / "labels.csv").write_text("0\n1\n")
    before = sorted(tmp_path.iterdir())
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"depcon {argv[0]}: file not found: \n"
    assert sorted(tmp_path.iterdir()) == before


def test_alpha_whose_complement_rounds_to_one_exit_code(bench, tmp_path, capsys):
    out = tmp_path / "indep.json"
    assert run("indep", bench, "-o", out, "--alpha", "1e-17") == OutOfRangeError.exit_code
    message = "depcon indep: alpha 1e-17 is too small: 1 - alpha rounds to 1.0\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_kpca_labels_with_stray_row_exit_code(tmp_path, capsys):
    gram = tmp_path / "gram.csv"
    gram.write_text("1.0,0.5,0.2\n0.5,1.0,0.3\n0.2,0.3,1.0\n")
    labels = tmp_path / "labels.csv"
    out = tmp_path / "coords.csv"
    labels.write_text("0\nx\n1\n")
    assert run("kpca", gram, "-o", out, "--labels", labels) == NonNumericCellError.exit_code
    labels.write_text("label\n0\n1\n")
    assert run("kpca", gram, "-o", out, "--labels", labels) == LengthMismatchError.exit_code
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()
    labels.write_text("label\n0\n1\n1\n")
    assert run("kpca", gram, "-o", out, "-d", "1", "--labels", labels) == 0
    rows = out.read_text().split()
    assert rows[0] == "component_0,label"
    assert [row.rsplit(",", 1)[1] for row in rows[1:]] == ["0", "1", "1"]


@pytest.mark.parametrize(
    "text, error",
    [
        ("{", LengthMismatchError),
        (b"\xff\xfe", LengthMismatchError),
        ('{"x": 1}', LengthMismatchError),
        ("[0, 1, 1]", LengthMismatchError),
        ('{"labels": 3}', LengthMismatchError),
        ('{"labels": [0, 1, "x"]}', NonNumericCellError),
        ('{"labels": [0, 0.5, 1]}', NonNumericCellError),
        ('{"labels": [0, true, 1]}', NonNumericCellError),
        ('{"labels": [0, 1e300, 1]}', NonNumericCellError),
        ('{"labels": [0, 1180591620717411303424, 1]}', NonNumericCellError),
        pytest.param("[" * 200_000, LengthMismatchError, id="nested"),
    ],
)
@pytest.mark.parametrize("command", ["kpca", "eval", "eval-predictions"])
def test_bad_json_labels_exit_codes(tmp_path, capsys, command, text, error):
    _assert_labels_rejected(tmp_path, capsys, command, "labels.json", text, error)


def _assert_labels_rejected(tmp_path, capsys, command, name, text, error):
    gram = tmp_path / "gram.csv"
    gram.write_text("1.0,0.5,0.2\n0.5,1.0,0.3\n0.2,0.3,1.0\n")
    labels = tmp_path / name
    labels.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "out.csv"
    other = tmp_path / "other.csv"
    other.write_text("0\n1\n1\n")
    argv = {
        "kpca": ("kpca", gram, "-o", out, "-d", "1", "--labels", labels),
        "eval": ("eval", other, "--truth", labels, "-o", out),
        "eval-predictions": ("eval", labels, "--truth", other, "-o", out),
    }[command]
    assert run(*argv) == error.exit_code
    err = capsys.readouterr().err
    assert err.startswith(f"depcon {argv[0]}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    ["0\n1.5\n1\n", "0\n1e300\n1\n", "label\n0\ninf\n1\n", "-1e-300\n0\n1\n", "0\n,5\n1\n"],
)
@pytest.mark.parametrize("command", ["kpca", "eval", "eval-predictions"])
def test_bad_csv_labels_exit_codes(tmp_path, capsys, command, text):
    _assert_labels_rejected(tmp_path, capsys, command, "labels.csv", text, NonNumericCellError)


@pytest.mark.parametrize("text", ["", "label\n", "\n\n", '{"labels": []}'])
def test_empty_labels_exit_code(tmp_path, capsys, text):
    # the same empty file as truth and prediction: lengths agree, so only an
    # emptiness check stops `ari` 1.0 over k = 0 clusters
    labels = tmp_path / ("labels.json" if text.startswith("{") else "labels.csv")
    labels.write_text(text)
    out = tmp_path / "eval.json"
    assert run("eval", labels, "--truth", labels, "-o", out) == LengthMismatchError.exit_code
    err = capsys.readouterr().err
    assert err.startswith("depcon eval: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [labels]


def test_csv_labels_accept_integral_numbers(tmp_path):
    pred = tmp_path / "pred.csv"
    pred.write_text("0\n1\n1\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("label\n\n0.0\n1e0\n 1 \n")
    out = tmp_path / "eval.json"
    assert run("eval", pred, "--truth", truth, "-o", out) == 0
    assert json.loads(out.read_text())["per_input"][0]["ari"] == 1.0


def test_kpca_without_usable_component_exit_code(tmp_path, capsys):
    gram = tmp_path / "gram.csv"
    gram.write_text("1.0,1.0,1.0,1.0,1.0,1.0\n" * 6)  # HKH = 0
    out = tmp_path / "coords.csv"
    assert run("kpca", gram, "-o", out, "-d", "2") == OutOfRangeError.exit_code
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_kpca_rounding_noise_spectrum_exit_code(tmp_path, capsys):
    gram = tmp_path / "gram.csv"
    gram.write_text("0.7,0.7,0.7,0.7,0.7,0.7\n" * 6)  # HKH's spectrum is rounding noise
    out = tmp_path / "coords.csv"
    assert run("kpca", gram, "-o", out, "-d", "2") == OutOfRangeError.exit_code
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_json_labels_accept_integral_numbers(tmp_path):
    pred = tmp_path / "pred.csv"
    pred.write_text("0\n1\n1\n")
    truth = tmp_path / "truth.json"
    truth.write_text('{"labels": [0, 1.0, 1]}')
    out = tmp_path / "eval.json"
    assert run("eval", pred, "--truth", truth, "-o", out) == 0
    assert json.loads(out.read_text())["per_input"][0]["ari"] == 1.0


@pytest.mark.parametrize(
    "text, error",
    [
        ("{", TooFewSamplesError),
        (b"\xff\xfe", TooFewSamplesError),
        ("[1, 2]", TooFewSamplesError),
        ('{"x": 1}', TooFewSamplesError),
        ('{"rows": []}', TooFewSamplesError),
        ('{"rows": [1, 2]}', NonNumericCellError),
        ('{"rows": [[1.0, 2.0], 3]}', NonNumericCellError),
        ('{"rows": [[1.0, 2.0], [1.5, "x"]]}', NonNumericCellError),
        ('{"rows": [[1.0, 2.0]]}', TooFewSamplesError),
        ('{"rows": [[1.0], [2.0], [3.0]]}', TooFewFeaturesError),
        ('{"rows": [[1.0, 2.0], [1.5]]}', RaggedRowsError),
        ('{"feature_names": 5, "rows": [[0, 1], [1, 0], [2, 4]]}', RaggedRowsError),
        ('{"feature_names": "ab", "rows": [[0, 1], [1, 0], [2, 4]]}', RaggedRowsError),
        ('{"feature_names": {"a": 1}, "rows": [[0, 1], [1, 0], [2, 4]]}', RaggedRowsError),
        pytest.param("[" * 200_000, TooFewSamplesError, id="nested"),
    ],
)
def test_bad_json_dataset_exit_codes(tmp_path, capsys, text, error):
    data = tmp_path / "bad.json"
    data.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "gram.csv"
    assert run("gram", data, "-o", out) == error.exit_code
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, error",
    [
        ("gram", TooFewSamplesError),
        ("cluster", NotSquareError),
        ("kpca", LengthMismatchError),
        ("eval", LengthMismatchError),
    ],
)
def test_csv_not_utf8_exit_codes(tmp_path, capsys, command, error):
    _assert_csv_input_rejected(tmp_path, capsys, command, error, b"\xff\xfe1,0\n0,1\n")


@pytest.mark.parametrize(
    "command, error",
    [
        ("gram", TooFewSamplesError),
        ("cluster", NotSquareError),
        ("kpca", LengthMismatchError),
        ("eval", LengthMismatchError),
    ],
)
def test_csv_cell_beyond_csv_size_limit_exit_codes(tmp_path, capsys, command, error):
    _assert_csv_input_rejected(tmp_path, capsys, command, error, b"7" * 200_000 + b"\n")


def _assert_csv_input_rejected(tmp_path, capsys, command, error, content):
    """``content`` as the dataset, Gram, labels or truth CSV exits with ``error``'s code."""
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    gram = tmp_path / "gram.csv"
    gram.write_text("1.0,0.5\n0.5,1.0\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n1\n")
    out = tmp_path / "out.csv"
    argv = {
        "gram": ("gram", bad, "-o", out),
        "cluster": ("cluster", bad, "-o", out, "-k", "2"),
        "kpca": ("kpca", gram, "-o", out, "-d", "1", "--labels", bad),
        "eval": ("eval", labels, "--truth", bad, "-o", out),
    }[command]
    assert run(*argv) == error.exit_code
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_cluster_indefinite_gram(tmp_path):
    # in a signed embedding a cluster's mean is a saddle point of its spread, so
    # an assignment step may raise the objective; this Gram once ended in a
    # RuntimeError, and its clipped VRC scores were infinite
    values = np.random.default_rng(0).standard_normal((120, 120))
    values = (values + values.T) / 2
    values /= np.abs(values).max()
    gram = tmp_path / "indef.csv"
    gram.write_text("".join(",".join(map(repr, row)) + "\n" for row in values.tolist()))
    runs = [("--k-range", 2, 5, "--restarts", 3, "--seed", 1)]
    runs += [("-k", 4, "--restarts", 10, "--seed", seed) for seed in range(4)]
    for extra in runs:
        out = tmp_path / "labels.csv"
        assert run("cluster", gram, "-o", out, *extra) == 0
        report = json.loads((tmp_path / "labels.csv.report.json").read_text())
        labels = [int(line) for line in out.read_text().split()]
        assert len(labels) == 120 and set(labels) == set(range(report["best_k"]))
        numbers = [report["objective"], *report["objective_trace"], *report["scores"].values()]
        assert all(math.isfinite(v) for v in numbers)


def test_cluster_perfect_partition_scores_null(tmp_path):
    # two blocks, 1.0 within and 0.2 across: each cluster's points coincide, so
    # the within dispersion is 0 and the VRC is infinite, which JSON cannot spell
    values = np.full((6, 6), 0.2)
    values[:3, :3] = values[3:, 3:] = 1.0
    gram = tmp_path / "blocks.csv"
    gram.write_text("".join(",".join(map(repr, row)) + "\n" for row in values.tolist()))
    for extra in (("-k", 2), ("--k-range", 2, 3)):
        out = tmp_path / "labels.csv"
        assert run("cluster", gram, "-o", out, *extra) == 0
        text = (tmp_path / "labels.csv.report.json").read_text()
        report = json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in report"))
        assert report["best_k"] == 2 and report["scores"]["2"] is None
        assert report["labels"][:3] == [report["labels"][0]] * 3
        assert set(report["labels"][:3]).isdisjoint(report["labels"][3:])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_outputs_refuse_non_finite_numbers(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(NonFiniteValueError):
        _publish((path, _json_chunks({"x": [1.0, value]})))
    with pytest.raises(NonFiniteValueError):
        _publish((path, _json_chunks({"x": value}, rows={"rows": [b"[0]"]})))
    with pytest.raises(NonFiniteValueError):  # a row formatted as graphdist formats it
        rows = {"rows": [_json_text(row).encode() for row in [[value]]]}
        _publish((path, _json_chunks({}, rows=rows)))
    assert not path.exists()


def test_spread_beyond_float64_is_finite(tmp_path):
    # the first column's spread (2e308) overflows float64: it once gave an
    # all-NaN Gram and NaN statistics, with exit 0
    rows = [(1e308, 1.0), (-1e308, 2.0), (0.0, 4.0), (5e307, 3.0)]
    data, scaled = tmp_path / "big.csv", tmp_path / "scaled.csv"
    data.write_text("".join(f"{a!r},{b!r}\n" for a, b in rows))
    scaled.write_text("".join(f"{math.ldexp(a, -1000)!r},{b!r}\n" for a, b in rows))
    outputs = {}
    for path in (data, scaled):
        gram, indep = tmp_path / f"{path.stem}.gram.csv", tmp_path / f"{path.stem}.indep.json"
        assert run("gram", path, "-o", gram) == 0
        assert run("indep", path, "-o", indep) == 0
        pairs = json.loads(indep.read_text())["pairs"]
        outputs[path.stem] = gram.read_bytes(), pairs
        assert "nan" not in outputs[path.stem][0].decode()
        assert all(math.isfinite(pair["statistic"]) for pair in pairs)
    # kappa and the statistics do not see a power-of-two scale
    assert outputs["big"] == outputs["scaled"]


@pytest.mark.parametrize("threads", ["0", "-4"], ids=["0-None", "-4-None"])
def test_threads_below_one_exit_code(bench, tmp_path, capsys, threads):
    out = tmp_path / "out.json"
    for command in ("gram", "indep"):
        assert run(command, bench, "-o", out, "--threads", threads) == OutOfRangeError.exit_code
    assert run("test", bench, bench, "-o", out, "--threads", threads) == OutOfRangeError.exit_code
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("nonlinear", [(), ("--nonlinear",)], ids=["linear", "nonlinear"])
def test_synth_negative_max_pairs_exit_code(tmp_path, capsys, nonlinear):
    out = tmp_path / "bench.csv"
    assert run("synth", "-o", out, "--models", "2", "--samples", "20", "--features", "4",
               "--seed", "1", "--max-pairs", "-1", *nonlinear) == OutOfRangeError.exit_code
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "bench.json").exists()
    assert run("synth", "-o", out, "--models", "2", "--samples", "20", "--features", "4",
               "--seed", "1", "--max-pairs", "0", *nonlinear) == 0


def test_synth_negative_seed_exit_code(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run("synth", "-o", out, "--models", "2", "--samples", "20", "--features", "4",
               "--seed", "-1") == OutOfRangeError.exit_code
    assert capsys.readouterr().err == "depcon synth: need seed >= 0, got -1\n"
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "runs", [("-k", "2", "--max-iter", "0"), ("--k-range", "2", "4", "--max-iter", "0"),
             ("-k", "2", "--restarts", "0"), ("--k-range", "2", "4", "--restarts", "-1"),
             ("-k", "2", "--seed", "-1"), ("--k-range", "2", "4", "--seed", "-1")]
)
def test_cluster_max_iter_and_restarts_below_one_exit_code(bench, tmp_path, capsys, runs):
    gram = tmp_path / "gram.csv"
    assert run("gram", bench, "-o", gram) == 0
    out = tmp_path / "labels.csv"
    assert run("cluster", gram, "-o", out, *runs) == OutOfRangeError.exit_code
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "labels.csv.report.json").exists()


def test_cluster_report_in_missing_directory_leaves_no_labels(bench, tmp_path, capsys):
    gram, labels = tmp_path / "gram.csv", tmp_path / "labels.csv"
    assert run("gram", bench, "-o", gram) == 0
    report = tmp_path / "missing" / "r.json"
    assert run("cluster", gram, "-o", labels, "-k", 2, "--report", report) == 2
    # the message names the path given, not the temporary written beside it
    assert capsys.readouterr().err == f"depcon cluster: file not found: {report}\n"
    assert not labels.exists() and not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize(
    "argv, first, last",
    [
        (("synth", "-o", "new.csv", "--models", 2, "--samples", 20, "--features", 4),
         "new.csv", "new.json"),
        (("gram", "bench.csv", "-o", "g.csv"), "g.csv", "g.csv.provenance.json"),
        (("cluster", "gram.csv", "-o", "l.csv", "-k", 2, "--report", "r.json"), "l.csv", "r.json"),
        (("kpca", "gram.csv", "-o", "k.csv"), "k.csv", "k.csv.provenance.json"),
        (("eval", "pred.csv", "--truth", "bench.json", "-o", "e.csv"),
         "e.csv", "e.csv.provenance.json"),
    ],
    ids=["synth", "gram", "cluster", "kpca", "eval-csv"],
)
def test_failed_last_file_leaves_every_file_as_it_was(bench, tmp_path, capsys, argv, first, last):
    # the command's last file cannot be written (a directory stands at its
    # path), so none of its files is: an earlier file at the first path stays
    assert run("gram", bench, "-o", tmp_path / "gram.csv") == 0
    (tmp_path / "pred.csv").write_text("0\n1\n" * 50)
    (tmp_path / first).write_bytes(b"earlier\n")
    (tmp_path / last).mkdir()
    before = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    argv = [tmp_path / a if str(a).endswith((".csv", ".json")) else a for a in argv]
    assert run(*argv) == 3
    after = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    assert after == before  # no new file, no temporary, no changed byte
    assert capsys.readouterr().err == f"depcon {argv[0]}: {tmp_path / last}: not a regular file\n"


def test_output_symlink_is_replaced_not_followed(bench, tmp_path):
    plain, link, target = tmp_path / "plain.csv", tmp_path / "g.csv", tmp_path / "target.csv"
    assert run("gram", bench, "-o", plain) == 0
    target.write_bytes(b"kept\n")
    link.symlink_to(target)
    assert run("gram", bench, "-o", link) == 0
    assert not link.is_symlink() and link.read_bytes() == plain.read_bytes()
    assert target.read_bytes() == b"kept\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_rerun_keeps_the_mode_of_the_file_it_replaces(bench, tmp_path):
    out, probe = tmp_path / "g.csv", tmp_path / "probe"
    out.write_bytes(b"earlier\n")
    out.chmod(0o600)
    probe.touch()  # a new file's mode: 0666 less the umask
    assert run("gram", bench, "-o", out) == 0
    assert out.read_bytes() != b"earlier\n" and out.stat().st_mode & 0o7777 == 0o600
    sidecar = tmp_path / "g.csv.provenance.json"
    assert sidecar.stat().st_mode & 0o7777 == probe.stat().st_mode & 0o7777


def test_output_that_is_not_a_regular_file_exit_code(bench, tmp_path, capsys):
    # a symlink to a device: nothing is written to the device or put in its place
    link = tmp_path / "out.json"
    link.symlink_to(os.devnull)
    assert run("indep", bench, "-o", link) == 3
    assert capsys.readouterr().err == f"depcon indep: {link}: not a regular file\n"
    assert os.readlink(link) == os.devnull and not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("earlier", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize(
    "argv, path",
    [
        (("cluster", "gram.csv", "-o", "r.txt", "-k", 2, "--report", "r.txt"), "r.txt"),
        # one file reached through a symlink to its directory
        (("cluster", "gram.csv", "-o", "r.txt", "-k", 2, "--report", "link/r.txt"),
         "link/r.txt"),
    ],
    ids=["cluster", "cluster-linked-directory"],
)
def test_two_outputs_naming_one_file_exit_code(bench, tmp_path, capsys, argv, path, earlier):
    assert run("gram", bench, "-o", tmp_path / "gram.csv") == 0
    (tmp_path / "link").symlink_to(tmp_path)
    if earlier:
        (tmp_path / "r.txt").write_bytes(b"earlier\n")
    before = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    argv = [tmp_path / a if str(a).endswith((".csv", ".txt")) else a for a in argv]
    assert run(*argv) == 3
    after = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    assert after == before  # no new file, no temporary, no changed byte
    message = f"depcon {argv[0]}: {tmp_path / path}: named by two outputs of one command\n"
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("earlier", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize(
    "argv",
    [
        # synth's labels sidecar is the dataset path with a .json suffix, so
        # this also kept synth from naming one file twice
        ("synth", "-o", "x.json", "--models", 2, "--samples", 20, "--features", 4),
        ("cluster", "missing.csv", "-o", "x.json", "-k", 2),
        ("kpca", "missing.csv", "-o", "x.JSON"),
    ],
    ids=["synth", "cluster", "kpca"],
)
def test_csv_output_named_json_exit_code(tmp_path, capsys, argv, earlier):
    # a CSV under a .json name would be read back as JSON and refused, so the
    # command exits before it reads its input (a missing file would exit 2)
    out = tmp_path / argv[argv.index("-o") + 1]
    if earlier:
        out.write_bytes(b"earlier\n")
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    argv = [tmp_path / a if str(a).endswith((".csv", ".json", ".JSON")) else a for a in argv]
    assert run(*argv) == 4
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before
    message = f"depcon {argv[0]}: {out}: writes CSV, so its name may not end in .json\n"
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("output", ["", ".", "sub/"], ids=["empty", "dot", "directory"])
@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "--models", 2, "--samples", 20, "--features", 4, "-o"),
        ("gram", "bench.csv", "-o"),
        ("cluster", "gram.csv", "-k", 2, "-o"),
        ("cluster", "gram.csv", "-k", 2, "-o", "labels.csv", "--report"),
    ],
    ids=["synth", "gram", "cluster", "cluster-report"],
)
def test_output_name_without_a_file_name_exit_code(
    bench, tmp_path, monkeypatch, capsys, argv, output
):
    # refused before any input is read: the gram.csv given to cluster is missing
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert run(*argv, output) == 4
    message = f"depcon {argv[0]}: output name {output!r} ends in no file name\n"
    assert capsys.readouterr().err == message
    assert sorted(tmp_path.rglob("*")) == before


def test_output_symlink_to_another_output_is_replaced(bench, tmp_path):
    # a symlink at an output's path names a file of its own, which gets replaced
    gram, labels, report = tmp_path / "gram.csv", tmp_path / "l.csv", tmp_path / "r.json"
    assert run("gram", bench, "-o", gram) == 0
    report.symlink_to(labels)
    assert run("cluster", gram, "-o", labels, "-k", 2, "--report", report) == 0
    assert not report.is_symlink() and json.loads(report.read_text())["best_k"] == 2
    assert labels.read_text().count("\n") == 100


@pytest.mark.parametrize(
    "message, detail",
    [("Unable to allocate 171. MiB for an array", " (Unable to allocate 171. MiB for an array)"),
     ("", "")],
    ids=["numpy", "bare"],
)
@pytest.mark.parametrize("command", ["cluster", "kpca"])
def test_out_of_memory_exit_code(bench, tmp_path, monkeypatch, capsys, command, message, detail):
    gram, out = tmp_path / "gram.csv", tmp_path / "out.csv"
    assert run("gram", bench, "-o", gram) == 0

    def no_memory(path):
        raise MemoryError(message)

    monkeypatch.setattr(depcon.cli, "_load_gram", no_memory)
    extra = ("-k", 2) if command == "cluster" else ()
    assert run(command, gram, "-o", out, *extra) == 18
    assert capsys.readouterr().err == f"depcon {command}: out of memory{detail}\n"
    assert not out.exists() and not list(tmp_path.glob("out.csv*"))
