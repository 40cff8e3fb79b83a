"""The public surface of the package."""

import depcon

PUBLIC = [
    "BACKEND_NAME", "BenchmarkConfig", "BidirectedRepresentative", "ClusterAssignment",
    "CriticalMatrix", "CriticalScale", "Dataset", "DistanceCovMatrix", "GramMatrix",
    "IndependenceResult", "KpcaModel", "LabeledDataset", "LinearSem", "MixedGraph",
    "NonlinearPair", "NonlinearSem", "RandomDag", "SelectKResult", "SignMatrix",
    "StructureComparison", "adjusted_rand_index", "aggregate_statistic", "augment_nonlinear",
    "build_benchmark", "calinski_harabasz", "chi2_quantile_1df", "clustering",
    "contribution_features", "contribution_mean_distance", "critical", "critical_matrix",
    "dataset", "distance_cov_matrix", "embedding", "errors", "gram_matrix", "graph_distance",
    "graph_from_json", "graph_to_json", "graphs", "hamming_product", "independence_test",
    "inference", "kernel", "kernel_distance", "kernel_kmeans", "kpca_fit", "kpca_project",
    "kpca_transform", "linear_pca_scores", "lloyd_kmeans", "load_dataset", "load_dataset_json",
    "m_connected_empty", "mean_contribution", "model_descriptor", "random_dag",
    "random_linear_sem", "representative", "sample_linear_sem", "sample_nonlinear_sem",
    "sample_set_distance", "select_k", "sign_map", "sign_of_statistic",
    "silhouette_from_distances", "silhouette_score", "structure_difference_score", "synth",
    "variance_ratio_criterion",
]


def test_public_surface_is_pinned():
    # a name added to or dropped from depcon's exports must be added here on purpose
    assert sorted(depcon.__all__) == PUBLIC
