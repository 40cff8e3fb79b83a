"""The public surface of the package."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import depcon
import depcon.cli

PUBLIC = [
    "BACKEND_NAME", "BenchmarkConfig", "BidirectedRepresentative", "ClusterAssignment",
    "CriticalMatrix", "CriticalScale", "Dataset", "GramMatrix",
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
    # (which loads logging) and no OpenSSL, and an independence test no OpenSSL
    script = """
import sys
import depcon, depcon.cli
loaded = [name for name in ("concurrent.futures", "logging", "_hashlib") if name in sys.modules]
assert not loaded, loaded
import numpy as np
depcon.independence_test(np.sin(np.outer(np.arange(1.0, 41.0), [1.0, 2.3, 3.7])))
try:
    import _blake2  # noqa: F401
except ImportError:  # then the memo takes blake2b from hashlib
    pass
else:
    assert "_hashlib" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=str(Path(depcon.__file__).resolve().parent.parent))
    subprocess.run([sys.executable, "-c", script], env=env, check=True)
