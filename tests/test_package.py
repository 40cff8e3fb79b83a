"""The public surface of the package."""

import depcon

PUBLIC = [
    "BACKEND_NAME", "BenchmarkConfig", "BidirectedRepresentative", "ClusterAssignment",
    "CriticalMatrix", "CriticalScale", "Dataset", "DistanceCovMatrix", "GramMatrix",
    "IndependenceResult", "KpcaModel", "LabeledDataset", "LinearSem", "MixedGraph",
    "NonlinearPair", "NonlinearSem", "RandomDag", "SelectKResult", "SignMatrix",
    "StructureComparison", "adjusted_rand_index", "aggregate_statistic", "augment_nonlinear",
    "build_benchmark", "calinski_harabasz", "chi2_quantile_1df", "contribution_features",
    "contribution_mean_distance", "critical_matrix", "distance_cov_matrix", "gram_matrix",
    "graph_distance", "graph_from_json", "graph_to_json", "hamming_product", "independence_test",
    "kernel_distance", "kernel_kmeans", "kpca_fit", "kpca_project",
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
