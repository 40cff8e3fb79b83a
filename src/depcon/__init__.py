"""depcon: dependence contribution kernel for causal clustering.

Measures similarity between samples by the nonlinear dependence structure
they reflect, via distance-covariance contribution matrices. Ships the
kernel, independence and two-sample structure tests, graph-space
utilities, synthetic benchmarks, kernel k-means, and kernel PCA.
"""

from types import ModuleType as _ModuleType

from .clustering import (
    ClusterAssignment,
    SelectKResult,
    adjusted_rand_index,
    calinski_harabasz,
    kernel_kmeans,
    lloyd_kmeans,
    select_k,
    silhouette_from_distances,
    silhouette_score,
    variance_ratio_criterion,
)
from .critical import chi2_quantile_1df, critical_matrix
from .dataset import Dataset, load_dataset, load_dataset_json
from .embedding import KpcaModel, kpca_fit, kpca_transform, linear_pca_scores
from .graphs import (
    BidirectedRepresentative,
    MixedGraph,
    SignMatrix,
    graph_distance,
    graph_from_json,
    hamming_product,
    representative,
    sign_map,
    sign_of_statistic,
)
from .inference import (
    IndependenceResult,
    StructureComparison,
    aggregate_statistic,
    independence_test,
    structure_difference_score,
)
from .kernel import (
    BACKEND_NAME,
    GramMatrix,
    contribution_features,
    contribution_mean_distance,
    distance_cov_matrix,
    gram_matrix,
    mean_contribution,
    sample_set_distance,
)
from .synth import (
    BenchmarkConfig,
    LabeledDataset,
    LinearSem,
    NonlinearPair,
    NonlinearSem,
    RandomDag,
    augment_nonlinear,
    build_benchmark,
    model_descriptor,
    random_dag,
    random_linear_sem,
    sample_linear_sem,
    sample_nonlinear_sem,
)

__version__ = "0.1.0"

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
