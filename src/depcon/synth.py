"""Synthetic benchmarks: random DAGs, linear and nonlinear SEMs.

The nonlinear variants replace selected non-adjacent pairs with an
additive mechanism that is even in the (standardized) source variable, so
the injected dependence carries no linear correlation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Dataset, _as_seed_sequence
from .errors import AdjacentPairError, OddModelCountError, OutOfRangeError
from .graphs import MixedGraph

#: E[cos(Z)] for standard normal Z; subtracted so the mechanism is centered.
_COS_MEAN = math.exp(-0.5)


@dataclass(frozen=True, eq=False)
class RandomDag:
    """DAG over a fixed topological order 0..m-1; parents precede children."""

    m: int
    parent_sets: tuple
    edge_probability: float

    def edges(self):
        return [(p, v) for v in range(self.m) for p in self.parent_sets[v]]

    def to_graph(self) -> MixedGraph:
        return MixedGraph(self.m, {(p, v): "->" for p, v in self.edges()})


@dataclass(frozen=True, eq=False)
class LinearSem:
    dag: RandomDag
    weights: dict
    noise_scale: np.ndarray


@dataclass(frozen=True, eq=False)
class NonlinearPair:
    source: int
    target: int
    amplitude: float


@dataclass(frozen=True, eq=False)
class NonlinearSem:
    base: LinearSem
    pairs: tuple

    def __post_init__(self):
        dag = self.base.dag
        for pair in self.pairs:
            if not (0 <= pair.source < pair.target < dag.m):
                raise OutOfRangeError(
                    f"nonlinear pair ({pair.source}, {pair.target}) must be a forward pair"
                )
            if pair.source in dag.parent_sets[pair.target]:
                raise AdjacentPairError(
                    f"pair ({pair.source}, {pair.target}) is adjacent in the base DAG"
                )


def random_dag(m: int, edge_probability: float, seed) -> RandomDag:
    """Erdos-Renyi DAG over the fixed order: each forward pair kept with probability p."""
    if m < 2:
        raise OutOfRangeError(f"need at least 2 vertices, got {m}")
    if not (0.0 < edge_probability < 1.0):
        raise OutOfRangeError(f"edge probability must be in (0, 1), got {edge_probability}")
    rng = np.random.default_rng(_as_seed_sequence(seed))
    parent_sets = []
    for v in range(m):
        draws = rng.random(v)
        parent_sets.append(tuple(int(p) for p in np.nonzero(draws < edge_probability)[0]))
    return RandomDag(m=m, parent_sets=tuple(parent_sets), edge_probability=edge_probability)


def random_linear_sem(dag: RandomDag, seed) -> LinearSem:
    """Random SEM parameters: weights with |w| ~ U(0.5, 1.5) and a random sign,
    per-vertex noise scales ~ U(0.5, 1.0)."""
    rng = np.random.default_rng(_as_seed_sequence(seed))
    weights = {}
    for v in range(dag.m):
        for p in dag.parent_sets[v]:
            magnitude = rng.uniform(0.5, 1.5)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            weights[(p, v)] = sign * magnitude
    noise = rng.uniform(0.5, 1.0, size=dag.m)
    return LinearSem(dag=dag, weights=weights, noise_scale=noise)


def _sample(sem: LinearSem, pairs, n: int, seed) -> Dataset:
    if n < 1:
        raise OutOfRangeError(f"need at least 1 sample, got {n}")
    rng = np.random.default_rng(_as_seed_sequence(seed))
    dag = sem.dag
    by_target = {}
    for pair in pairs:
        by_target.setdefault(pair.target, []).append(pair)
    columns = np.empty((n, dag.m), dtype=np.float64)
    for v in range(dag.m):
        col = np.zeros(n)
        for p in dag.parent_sets[v]:
            col += sem.weights[(p, v)] * columns[:, p]
        for pair in by_target.get(v, ()):
            src = columns[:, pair.source]
            std = src.std()
            z = (src - src.mean()) / std if std > 0 else np.zeros_like(src)
            col += pair.amplitude * (np.cos(z) - _COS_MEAN)
        col += sem.noise_scale[v] * rng.standard_normal(n)
        columns[:, v] = col
    return Dataset(columns)


def sample_linear_sem(sem: LinearSem, n: int, seed) -> Dataset:
    """n samples in topological order: X_v = sum_p w_pv X_p + noise."""
    return _sample(sem, (), n, seed)


def sample_nonlinear_sem(sem: NonlinearSem, n: int, seed) -> Dataset:
    """Linear sampling plus the centered-cosine mechanism on each injected pair."""
    return _sample(sem.base, sem.pairs, n, seed)


def _check_max_pairs(max_pairs):
    if max_pairs is not None and max_pairs < 0:
        raise OutOfRangeError(f"max_pairs must be at least 0, got {max_pairs}")


def augment_nonlinear(
    sem: LinearSem,
    seed,
    amplitude: float = 1.0,
    max_pairs=None,
) -> NonlinearSem:
    """Attach the nonlinear mechanism to non-adjacent forward pairs of the base DAG.

    All eligible pairs are used by default; ``max_pairs`` caps the count
    with a seeded subset; a negative cap raises OutOfRangeError.
    """
    _check_max_pairs(max_pairs)
    seed = _as_seed_sequence(seed)
    dag = sem.dag
    eligible = [
        (u, v)
        for v in range(dag.m)
        for u in range(v)
        if u not in dag.parent_sets[v]
    ]
    if max_pairs is not None and max_pairs < len(eligible):
        rng = np.random.default_rng(seed)
        keep = rng.choice(len(eligible), size=max_pairs, replace=False)
        eligible = [eligible[int(i)] for i in sorted(keep)]
    pairs = tuple(NonlinearPair(source=u, target=v, amplitude=amplitude) for u, v in eligible)
    return NonlinearSem(base=sem, pairs=pairs)


@dataclass(frozen=True)
class BenchmarkConfig:
    num_models: int = 6
    samples_per_model: int = 100
    num_features: int = 10
    edge_probability: float = 0.3
    nonlinear: bool = False
    seed: int = 0
    amplitude: float = 1.0
    max_pairs: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    data: Dataset
    labels: np.ndarray
    models: tuple


def model_descriptor(model) -> dict:
    """JSON-ready description of a SEM (for provenance sidecars)."""
    if isinstance(model, NonlinearSem):
        base = model_descriptor(model.base)
        base["nonlinear_pairs"] = [
            {"source": p.source, "target": p.target, "amplitude": p.amplitude}
            for p in model.pairs
        ]
        return base
    return {
        "vertices": model.dag.m,
        "edges": [
            {"from": p, "to": v, "weight": model.weights[(p, v)]}
            for p, v in model.dag.edges()
        ],
        "noise_scale": model.noise_scale.tolist(),
    }


def build_benchmark(config: BenchmarkConfig) -> LabeledDataset:
    """Concatenated per-model sample blocks with ground-truth labels.

    Linear case: independent random DAG + SEM per model. Nonlinear case:
    half as many base DAGs, each contributing its linear SEM and a
    nonlinear augmentation of the same SEM.
    """
    if config.num_models < 1 or config.samples_per_model < 1:
        raise OutOfRangeError("model and sample counts must be positive")
    _check_max_pairs(config.max_pairs)
    root = _as_seed_sequence(config.seed)
    models = []
    if config.nonlinear:
        if config.num_models % 2 != 0:
            raise OddModelCountError(
                f"nonlinear benchmarks need an even model count, got {config.num_models}"
            )
        for base_seed in root.spawn(config.num_models // 2):
            dag_seed, sem_seed, pair_seed = base_seed.spawn(3)
            dag = random_dag(config.num_features, config.edge_probability, dag_seed)
            sem = random_linear_sem(dag, sem_seed)
            models.append(sem)
            models.append(
                augment_nonlinear(
                    sem, pair_seed, amplitude=config.amplitude, max_pairs=config.max_pairs
                )
            )
    else:
        for model_seed in root.spawn(config.num_models):
            dag_seed, sem_seed = model_seed.spawn(2)
            dag = random_dag(config.num_features, config.edge_probability, dag_seed)
            models.append(random_linear_sem(dag, sem_seed))

    sample_root = root.spawn(1)[0]
    blocks = []
    labels = []
    for index, (model, draw_seed) in enumerate(zip(models, sample_root.spawn(len(models)))):
        if isinstance(model, NonlinearSem):
            block = sample_nonlinear_sem(model, config.samples_per_model, draw_seed)
        else:
            block = sample_linear_sem(model, config.samples_per_model, draw_seed)
        blocks.append(block.values)
        labels.extend([index] * config.samples_per_model)
    data = Dataset(np.vstack(blocks))
    return LabeledDataset(
        data=data, labels=np.asarray(labels, dtype=np.int64), models=tuple(models)
    )
