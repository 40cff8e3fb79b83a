"""The public surface of the package."""

import argparse
import dataclasses
import importlib.util
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

import depcon
import depcon.cli

PUBLIC = [
    "BACKEND_NAME", "BenchmarkConfig", "BidirectedRepresentative", "ClusterAssignment",
    "CriticalMatrix", "Dataset", "GramMatrix",
    "IndependenceResult", "KpcaModel", "LabeledDataset", "LinearSem", "MixedGraph",
    "NonlinearPair", "NonlinearSem", "RandomDag", "SelectKResult", "SignMatrix",
    "StructureComparison", "adjusted_rand_index", "aggregate_statistic", "augment_nonlinear",
    "build_benchmark", "calinski_harabasz", "chi2_quantile_1df", "contribution_features",
    "contribution_mean_distance", "critical_matrix", "distance_cov_matrix", "gram_matrix",
    "graph_distance", "graph_from_json", "hamming_product", "independence_test",
    "kernel_kmeans", "kpca_fit",
    "kpca_transform", "linear_pca_scores", "lloyd_kmeans", "load_dataset", "load_dataset_json",
    "mean_contribution", "model_descriptor", "random_dag",
    "random_linear_sem", "representative", "sample_linear_sem", "sample_nonlinear_sem",
    "sample_set_distance", "select_k", "sign_map", "sign_of_statistic",
    "silhouette_from_distances", "silhouette_score", "structure_difference_score",
    "variance_ratio_criterion",
]


def test_public_surface_is_pinned():
    # a name added to or dropped from depcon's exports must be added here on purpose
    assert sorted(depcon.__all__) == PUBLIC


# the parameters of each public function and the fields of each public dataclass
SIGNATURES = {
    "BenchmarkConfig": "num_models samples_per_model num_features edge_probability nonlinear "
                       "seed amplitude max_pairs",
    "BidirectedRepresentative": "m connected",
    "ClusterAssignment": "labels k objective iterations converged objective_trace repairs",
    "CriticalMatrix": "alpha values",
    "Dataset": "values feature_names",
    "GramMatrix": "values",
    "IndependenceResult": "statistic reject alpha",
    "KpcaModel": "eigenvalues coefficients",
    "LabeledDataset": "data labels models",
    "LinearSem": "dag weights noise_scale",
    "MixedGraph": "m edges",
    "NonlinearPair": "source target amplitude",
    "NonlinearSem": "base pairs",
    "RandomDag": "m parent_sets edge_probability",
    "SelectKResult": "best_k scores assignments",
    "SignMatrix": "values",
    "StructureComparison": "score different_structure witnesses statistic_a statistic_b",
    "adjusted_rand_index": "labels_a labels_b",
    "aggregate_statistic": "data alpha threads",
    "augment_nonlinear": "sem seed amplitude max_pairs",
    "build_benchmark": "config",
    "calinski_harabasz": "points labels",
    "chi2_quantile_1df": "p",
    "contribution_features": "data standardize threads",
    "contribution_mean_distance": "mean_a mean_b",
    "critical_matrix": "m alpha",
    "distance_cov_matrix": "data",
    "gram_matrix": "data_a data_b alpha threads",
    "graph_distance": "u u_prime",
    "graph_from_json": "payload",
    "hamming_product": "a b",
    "independence_test": "data alpha threads",
    "kernel_kmeans": "gram k max_iter restarts seed init_labels",
    "kpca_fit": "gram d",
    "kpca_transform": "model",
    "linear_pca_scores": "points d",
    "lloyd_kmeans": "points k max_iter restarts seed init_labels",
    "load_dataset": "source has_header",
    "load_dataset_json": "source",
    "mean_contribution": "data alpha threads",
    "model_descriptor": "model",
    "random_dag": "m edge_probability seed",
    "random_linear_sem": "dag seed",
    "representative": "graph",
    "sample_linear_sem": "sem n seed",
    "sample_nonlinear_sem": "sem n seed",
    "sample_set_distance": "data_a data_b alpha threads",
    "select_k": "gram k_range criterion max_iter restarts seed",
    "sign_map": "u",
    "sign_of_statistic": "statistic",
    "silhouette_from_distances": "dist labels",
    "silhouette_score": "gram labels",
    "structure_difference_score": "data_a data_b alpha threads",
    "variance_ratio_criterion": "gram labels",
}


def test_public_signatures_are_pinned():
    # a parameter or field added or dropped must be added here on purpose, as a name is above
    found = {}
    for name in depcon.__all__:
        value = getattr(depcon, name)
        if dataclasses.is_dataclass(value):
            found[name] = " ".join(field.name for field in dataclasses.fields(value))
        elif inspect.isfunction(value):
            found[name] = " ".join(inspect.signature(value).parameters)
    assert found == SIGNATURES


# each subcommand's arguments, by dest, in the order the parser declares them
CLI_OPTIONS = {
    "gram": "data output alpha threads",
    "indep": "data output alpha threads",
    "test": "data_a data_b output alpha threads",
    "synth": "output models samples features edge_prob nonlinear amplitude max_pairs seed",
    "cluster": "gram output report k k_range criterion max_iter restarts seed",
    "kpca": "gram output components labels",
    "eval": "predictions truth output",
    "graphdist": "graph_a graph_b output",
}


def test_cli_options_are_pinned():
    # a flag added or dropped must be edited here on purpose, as a parameter is in SIGNATURES
    parser = depcon.cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: " ".join(a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction))
        for name, sub in commands.choices.items()
    }
    assert found == CLI_OPTIONS


def test_readme_cli_examples_parse():
    # a flag dropped from the parser but left in a README example fails here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    lines = [line for block in blocks for line in block.splitlines()]
    examples = [line for line in lines if line.startswith("depcon ")]
    assert len(examples) == 8
    parser = depcon.cli.build_parser()
    for line in examples:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            raise AssertionError(f"README example does not parse: {line}") from None


def test_benchmark_contract(tmp_path):
    # perfbench/ is a fixed harness; these are the names and arguments it calls,
    # each called here the way it calls them, on small inputs
    for fn in (depcon.gram_matrix, depcon.independence_test, depcon.structure_difference_score):
        assert "threads" in inspect.signature(fn).parameters, fn.__name__
    assert isinstance(depcon.BACKEND_NAME, str)
    config = depcon.BenchmarkConfig(
        num_models=2,
        samples_per_model=12,
        num_features=3,
        edge_probability=0.3,
        nonlinear=True,
        seed=0,
    )
    bench = depcon.build_benchmark(config)
    gram = depcon.gram_matrix(bench.data, alpha=0.1, threads=1)
    same = depcon.gram_matrix(bench.data.values, alpha=0.1, threads=1)
    assert np.array_equal(same.values, gram.values)
    selection = depcon.select_k(gram, range(2, 4), "vrc", restarts=2, seed=0)
    coords = depcon.kpca_transform(depcon.kpca_fit(gram, 2))
    assert coords.shape == (24, 2)
    chosen = selection.assignments[selection.best_k].labels
    assert -1.0 <= depcon.adjusted_rand_index(bench.labels, chosen) <= 1.0
    a, b = bench.data.values[bench.labels == 0], bench.data.values[bench.labels == 1]
    assert depcon.independence_test(a, alpha=0.1, threads=1).statistic.shape == (3, 3)
    depcon.structure_difference_score(a, b, alpha=0.1, threads=1)
    data = tmp_path / "bench.csv"
    argv = ["synth", "-o", data, "--models", 2, "--samples", 12, "--features", 3, "--nonlinear",
            "--seed", 0]
    assert depcon.cli.main([str(arg) for arg in argv]) == 0 and data.exists()


def test_import_footprint():
    # the thread pool is imported only by a build with more than one worker,
    # and the sums memo hashes with _blake2: importing depcon maps no pool
    # (which loads logging) and no OpenSSL, and an independence test no OpenSSL;
    # only the CSV cell formatter imports orjson
    script = """
import sys
import depcon, depcon.cli
loaded = [name for name in ("concurrent.futures", "logging", "_hashlib", "orjson")
          if name in sys.modules]
assert not loaded, loaded
import numpy as np
depcon.independence_test(np.sin(np.outer(np.arange(1.0, 41.0), [1.0, 2.3, 3.7])))
assert "orjson" not in sys.modules
try:
    import _blake2  # noqa: F401
except ImportError:  # then the memo takes blake2b from hashlib
    pass
else:
    assert "_hashlib" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=str(Path(depcon.__file__).resolve().parent.parent))
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def test_scale_script_runs_every_layer():
    # bench/scale.py calls the kernel by name in fresh processes; a renamed
    # entry point must fail here, not only when the scale grid is next run
    script = Path(__file__).resolve().parent.parent / "bench" / "scale.py"
    spec = importlib.util.spec_from_file_location("scale", script)
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)
    assert {layer for layer, _, _ in scale.CELLS} == set(scale.LAYERS)
    env = dict(os.environ, **scale.THREAD_ENV,
               PYTHONPATH=str(Path(depcon.__file__).resolve().parent.parent))
    keys = {"layer", "n", "m", "wall_s", "cpu_s", "peak_rss_mb", "rss_before_mb", "numpy"}
    for layer in scale.LAYERS:
        out = subprocess.run(
            [sys.executable, str(script), "--cell", layer, "200", "5"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        record = json.loads(out.splitlines()[-1])
        assert set(record) == keys | ({"file_bytes"} if layer == "cli_gram" else set()), layer
        assert (record["layer"], record["n"], record["m"]) == (layer, 200, 5)
