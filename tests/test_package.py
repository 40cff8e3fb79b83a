"""The public surface of the package."""

import inspect

import numpy as np

import depcon

PUBLIC = [
    "BACKEND_NAME", "BenchmarkConfig", "BidirectedRepresentative", "ClusterAssignment",
    "CriticalMatrix", "CriticalScale", "Dataset", "GramMatrix",
    "IndependenceResult", "KpcaModel", "LabeledDataset", "LinearSem", "MixedGraph",
    "NonlinearPair", "NonlinearSem", "RandomDag", "SelectKResult", "SignMatrix",
    "StructureComparison", "adjusted_rand_index", "aggregate_statistic", "augment_nonlinear",
    "build_benchmark", "calinski_harabasz", "chi2_quantile_1df", "contribution_features",
    "contribution_mean_distance", "critical_matrix", "distance_cov_matrix", "gram_matrix",
    "graph_distance", "graph_from_json", "graph_to_json", "hamming_product", "independence_test",
    "kernel_kmeans", "kpca_fit", "kpca_project",
    "kpca_transform", "linear_pca_scores", "lloyd_kmeans", "load_dataset", "load_dataset_json",
    "m_connected_empty", "mean_contribution", "model_descriptor", "random_dag",
    "random_linear_sem", "representative", "sample_linear_sem", "sample_nonlinear_sem",
    "sample_set_distance", "select_k", "sign_map", "sign_of_statistic",
    "silhouette_from_distances", "silhouette_score", "structure_difference_score",
    "variance_ratio_criterion",
]


def test_public_surface_is_pinned():
    # a name added to or dropped from depcon's exports must be added here on purpose
    assert sorted(depcon.__all__) == PUBLIC


def test_benchmark_contract():
    # perfbench/ is a fixed harness; these are the names and arguments it calls
    for fn in (depcon.gram_matrix, depcon.independence_test, depcon.structure_difference_score):
        assert "threads" in inspect.signature(fn).parameters, fn.__name__
    x = np.random.default_rng(0).standard_normal((12, 3))
    assert depcon.gram_matrix(x, alpha=0.1, threads=1).values.shape == (12, 12)
    assert isinstance(depcon.BACKEND_NAME, str)
