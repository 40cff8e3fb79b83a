import numpy as np
import pytest

from depcon.errors import AdjacentPairError, OddModelCountError, OutOfRangeError
from depcon.graphs import graph_distance, representative
from depcon.inference import independence_test
from depcon.synth import (
    BenchmarkConfig,
    LinearSem,
    NonlinearPair,
    NonlinearSem,
    augment_nonlinear,
    build_benchmark,
    model_descriptor,
    random_dag,
    random_linear_sem,
    sample_linear_sem,
    sample_nonlinear_sem,
)


def test_random_dag_deterministic():
    a = random_dag(10, 0.3, 42)
    b = random_dag(10, 0.3, 42)
    assert a.parent_sets == b.parent_sets
    assert a.parent_sets != random_dag(10, 0.3, 43).parent_sets


def test_random_dag_forward_only():
    dag = random_dag(8, 0.5, 1)
    for v, parents in enumerate(dag.parent_sets):
        assert all(p < v for p in parents)
    dag.to_graph()  # ancestral validation passes


def test_random_dag_near_one_probability_complete():
    dag = random_dag(6, 1.0 - 1e-12, 0)
    assert all(len(dag.parent_sets[v]) == v for v in range(6))


def test_random_dag_sparse_limit():
    counts = [len(random_dag(10, 0.01, seed).edges()) for seed in range(500)]
    assert np.mean(counts) < 1.0


def test_random_dag_validation():
    with pytest.raises(OutOfRangeError):
        random_dag(1, 0.3, 0)
    with pytest.raises(OutOfRangeError):
        random_dag(5, 0.0, 0)


def test_empty_dag_samples_independent():
    dag = random_dag(3, 1e-9, 0)
    assert all(len(p) == 0 for p in dag.parent_sets)
    sem = random_linear_sem(dag, 1)
    rejections = 0
    trials = 60
    for child in np.random.SeedSequence(2).spawn(trials):
        data = sample_linear_sem(sem, 500, child)
        rejections += int(independence_test(data, alpha=0.1).reject[0, 1])
    assert rejections / trials <= 0.13


def test_single_edge_covariance():
    dag = random_dag(2, 0.999999, 0)
    sem = LinearSem(dag=dag, weights={(0, 1): 1.0}, noise_scale=np.array([1.0, 1.0]))
    data = sample_linear_sem(sem, 5000, 7)
    cov = np.cov(data.values.T)
    assert cov[0, 1] == pytest.approx(1.0, abs=0.1)


def test_sampling_deterministic():
    dag = random_dag(5, 0.4, 3)
    sem = random_linear_sem(dag, 4)
    a = sample_linear_sem(sem, 50, 5)
    b = sample_linear_sem(sem, 50, 5)
    assert np.array_equal(a.values, b.values)


def test_zero_amplitude_matches_base():
    dag = random_dag(5, 0.3, 10)
    sem = random_linear_sem(dag, 11)
    nl = augment_nonlinear(sem, 12, amplitude=0.0)
    base = sample_linear_sem(sem, 40, 13)
    augmented = sample_nonlinear_sem(nl, 40, 13)
    assert np.array_equal(base.values, augmented.values)


def test_adjacent_pair_rejected():
    dag = random_dag(4, 0.999999, 0)  # complete DAG: every pair adjacent
    sem = random_linear_sem(dag, 1)
    with pytest.raises(AdjacentPairError):
        NonlinearSem(base=sem, pairs=(NonlinearPair(0, 1, 1.0),))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: build_benchmark(BenchmarkConfig(num_models=0)), "must be positive"),
        (lambda: build_benchmark(BenchmarkConfig(samples_per_model=0)), "must be positive"),
        (lambda: build_benchmark(BenchmarkConfig(seed=-1)), "need seed >= 0, got -1"),
        (lambda: NonlinearSem(base=random_linear_sem(random_dag(4, 1e-9, 0), 1),
                              pairs=(NonlinearPair(2, 1, 1.0),)),
         r"pair \(2, 1\) must be a forward pair"),
        (lambda: sample_linear_sem(random_linear_sem(random_dag(3, 0.5, 0), 1), 0, 2),
         "need at least 1 sample, got 0"),
        (lambda: random_dag(3, 0.5, -1), "need seed >= 0, got -1$"),
        (lambda: random_linear_sem(random_dag(3, 0.5, 0), -1), "need seed >= 0, got -1$"),
        (lambda: sample_linear_sem(random_linear_sem(random_dag(3, 0.5, 0), 1), 5, -1),
         "need seed >= 0, got -1$"),
        (lambda: sample_nonlinear_sem(
            augment_nonlinear(random_linear_sem(random_dag(3, 0.5, 0), 1), 2), 5, -1),
         "need seed >= 0, got -1$"),
        # refused even where no pair is drawn
        (lambda: augment_nonlinear(random_linear_sem(random_dag(3, 0.5, 0), 1), -1),
         "need seed >= 0, got -1$"),
        (lambda: augment_nonlinear(random_linear_sem(random_dag(6, 0.1, 0), 1), -1, max_pairs=1),
         "need seed >= 0, got -1$"),
    ],
    ids=[
        "no-models", "no-samples", "negative-seed", "backward-pair", "no-samples-drawn",
        "dag-seed", "sem-seed", "linear-sample-seed", "nonlinear-sample-seed",
        "pairs-seed", "capped-pairs-seed",
    ],
)
def test_out_of_range_arguments_rejected(make, message):
    with pytest.raises(OutOfRangeError, match=message):
        make()


def test_nonlinear_pairs_nonadjacent_and_capped():
    dag = random_dag(8, 0.3, 5)
    sem = random_linear_sem(dag, 6)
    nl = augment_nonlinear(sem, 7)
    for pair in nl.pairs:
        assert pair.source not in dag.parent_sets[pair.target]
    capped = augment_nonlinear(sem, 7, max_pairs=2)
    assert len(capped.pairs) == 2
    assert augment_nonlinear(sem, 7, max_pairs=0).pairs == ()
    with pytest.raises(OutOfRangeError, match="max_pairs must be at least 0, got -1"):
        augment_nonlinear(sem, 7, max_pairs=-1)


def test_injected_dependence_zero_correlation_high_power():
    # centered-cosine mechanism: |pearson r| < 0.05 at n=5000, test power >= 0.95 at n=500
    dag = random_dag(2, 1e-9, 0)
    sem = random_linear_sem(dag, 1)
    nl = NonlinearSem(base=sem, pairs=(NonlinearPair(0, 1, 1.0),))
    big = sample_nonlinear_sem(nl, 5000, 123).values
    r = np.corrcoef(big[:, 0], big[:, 1])[0, 1]
    assert abs(r) < 0.05
    rejections = 0
    trials = 40
    for child in np.random.SeedSequence(3).spawn(trials):
        data = sample_nonlinear_sem(nl, 500, child)
        rejections += int(independence_test(data, alpha=0.1).reject[0, 1])
    assert rejections / trials >= 0.95


def test_benchmark_paper_scale_shape():
    bench = build_benchmark(BenchmarkConfig(num_models=6, samples_per_model=100,
                                            num_features=10, seed=0))
    assert bench.data.values.shape == (600, 10)
    assert np.array_equal(np.bincount(bench.labels), [100] * 6)
    assert len(bench.models) == 6


def test_benchmark_nonlinear_pairs_models():
    bench = build_benchmark(BenchmarkConfig(num_models=6, samples_per_model=20,
                                            num_features=6, nonlinear=True, seed=1))
    assert len(bench.models) == 6
    # alternating base / augmented twins sharing the DAG
    for base_index in (0, 2, 4):
        base = bench.models[base_index]
        twin = bench.models[base_index + 1]
        assert isinstance(twin, NonlinearSem)
        assert twin.base is base


def test_benchmark_odd_nonlinear_count_rejected():
    with pytest.raises(OddModelCountError):
        build_benchmark(BenchmarkConfig(num_models=5, nonlinear=True))


def test_benchmark_reproducible():
    cfg = BenchmarkConfig(num_models=4, samples_per_model=25, num_features=5, seed=9)
    a = build_benchmark(cfg)
    b = build_benchmark(cfg)
    assert np.array_equal(a.data.values, b.data.values)
    assert np.array_equal(a.labels, b.labels)


def test_models_structurally_distinct():
    # independently generated DAGs at m=10, p=0.3 rarely share a representative
    distinct = 0
    trials = 40
    for child in np.random.SeedSequence(17).spawn(trials):
        s1, s2 = child.spawn(2)
        rep_a = representative(random_dag(10, 0.3, s1).to_graph())
        rep_b = representative(random_dag(10, 0.3, s2).to_graph())
        distinct += int(graph_distance(rep_a, rep_b) > 0)
    assert distinct / trials >= 0.95


def test_model_descriptor_roundtrippable():
    dag = random_dag(4, 0.5, 2)
    sem = random_linear_sem(dag, 3)
    desc = model_descriptor(augment_nonlinear(sem, 4, amplitude=0.5))
    assert desc["vertices"] == 4
    assert all(set(e) == {"from", "to", "weight"} for e in desc["edges"])
    assert all(p["amplitude"] == 0.5 for p in desc["nonlinear_pairs"])
