"""The three benchmark workloads: inputs, timed calls and output checks.

Each workload builds its inputs in ``setup`` from a pass seed, makes its
top-level calls through ``Ops`` inside the timed region in ``run``, and
checks every output afterwards in ``check``. Library functions are looked
up on the ``depcon`` modules at call time, so the tracer's wrappers are
used when tracing is on.
"""

from __future__ import annotations

import csv
import json
import math
import time
from pathlib import Path

import numpy as np

import depcon
import depcon.cli

import reference

ALPHA = 0.1


class PassAborted(Exception):
    """A top-level operation failed, so the rest of the pass cannot run."""


class Ops:
    """Times each top-level operation and records whether it failed."""

    def __init__(self, tracer=None):
        self.records = {}
        self.tracer = tracer

    def call(self, name, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.set_operation(name)
        record = {"seconds": None, "ok": True, "error": None}
        self.records[name] = record
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            record.update(seconds=time.perf_counter() - start, ok=False, error=repr(exc))
            raise PassAborted(name) from exc
        record["seconds"] = time.perf_counter() - start
        return result

    def cli(self, name, argv):
        code = self.call(name, lambda: depcon.cli.main([str(a) for a in argv]))
        if code != 0:
            self.fail(name, f"exit code {code}")
            raise PassAborted(name)

    def fail(self, name, reason):
        record = self.records.setdefault(name, {"seconds": None, "ok": True, "error": None})
        record["ok"] = False
        record["error"] = record["error"] or reason

    def expect(self, name, condition, reason):
        if not condition:
            self.fail(name, reason)

    def checked(self, name, check, *args):
        """Run one output check; an exception in it fails the operation."""
        try:
            check(*args)
        except Exception as exc:
            self.fail(name, f"check raised {exc!r}")


def _rel_close(value, expected, rtol):
    return abs(value - expected) <= rtol * max(1.0, abs(expected))


def check_gram(ops, name, gram, values, rng):
    """Symmetric, unit diagonal, and sampled entries equal to the O(n^2) reference."""
    n = gram.shape[0]
    ops.expect(name, gram.shape == (n, n) and np.array_equal(gram, gram.T), "Gram not symmetric")
    diag = np.diagonal(gram)
    ops.expect(name, bool(np.all((np.abs(diag - 1.0) <= 1e-12) | (diag == 0.0))), "diagonal not 1")
    idx = np.sort(rng.choice(n, size=12, replace=False))
    err = float(np.max(np.abs(gram[np.ix_(idx, idx)] - reference.kappa_entries(values, idx, ALPHA))))
    ops.expect(name, err <= 1e-12, f"Gram entries off the reference by {err:.3g}")


def check_selection(ops, name, gram, selection):
    """Recompute each k's objective and VRC from its labels and the Gram."""
    for k, assignment in selection.assignments.items():
        labels = assignment.labels
        ops.expect(name, np.unique(labels).size == k, f"k={k}: empty cluster")
        objective = reference.kmeans_objective(gram, labels)
        ops.expect(name, _rel_close(assignment.objective, objective, 1e-9), f"k={k}: objective")
        vrc = reference.variance_ratio(gram, labels)
        ops.expect(name, _rel_close(selection.scores[k], vrc, 1e-9), f"k={k}: VRC")
    ks = sorted(selection.scores)
    best = max(ks, key=lambda k: (selection.scores[k], -k))
    ops.expect(name, selection.best_k == best, "best k is not the VRC argmax")


class ClusterSelect:
    """Criterion-10 benchmark through the library: Gram, select_k, KPCA, ARI."""

    name = "cluster-select"
    plan = ("synth", "gram", "select_k", "kpca_fit", "kpca_transform", "ari")

    def setup(self, seed, ops, workdir):
        config = depcon.BenchmarkConfig(
            num_models=6,
            samples_per_model=100,
            num_features=8,
            edge_probability=0.3,
            nonlinear=True,
            seed=seed,
        )
        return {"seed": seed, "bench": ops.call("synth", depcon.build_benchmark, config)}

    def run(self, inputs, ops):
        bench = inputs["bench"]
        gram = ops.call("gram", depcon.gram_matrix, bench.data, alpha=ALPHA, threads=1)
        selection = ops.call(
            "select_k", depcon.select_k, gram, range(2, 11), "vrc", restarts=10, seed=inputs["seed"]
        )
        model = ops.call("kpca_fit", depcon.kpca_fit, gram, 2)
        coords = ops.call("kpca_transform", depcon.kpca_transform, model)
        chosen = selection.assignments[selection.best_k].labels
        ari = ops.call("ari", depcon.adjusted_rand_index, bench.labels, chosen)
        return {"gram": gram, "selection": selection, "model": model, "coords": coords, "ari": ari}

    def check(self, inputs, outputs, ops):
        bench = inputs["bench"]
        gram = outputs["gram"].values
        rng = np.random.default_rng(inputs["seed"])
        ops.checked("gram", check_gram, ops, "gram", gram, bench.data.values, rng)
        ops.checked("select_k", check_selection, ops, "select_k", gram, outputs["selection"])
        coords = outputs["coords"]
        ops.expect("kpca_transform", coords.shape == (gram.shape[0], 2), "coordinate shape")
        residual = reference.kpca_residual(gram, coords, outputs["model"].eigenvalues)
        ops.expect("kpca_transform", residual <= 1e-8, f"eigen-equation residual {residual:.3g}")
        chosen = outputs["selection"].assignments[outputs["selection"].best_k].labels
        expected = reference.adjusted_rand(bench.labels, chosen)
        ops.expect("ari", abs(outputs["ari"] - expected) <= 1e-12, "ARI off the reference")
        return {"ari": outputs["ari"]}


class TestsLarge:
    """Pairwise independence tests and one two-sample comparison at n=1500, m=20.

    One library thread: with two, the workers' block temporaries overlap
    differently from pass to pass and peak RSS moved by 10%.
    """

    name = "tests-large"
    plan = ("synth", "indep_a", "indep_b", "two_sample")
    threads = 1

    def setup(self, seed, ops, workdir):
        config = depcon.BenchmarkConfig(
            num_models=2,
            samples_per_model=1500,
            num_features=20,
            edge_probability=0.3,
            nonlinear=True,
            seed=seed,
        )
        bench = ops.call("synth", depcon.build_benchmark, config)
        values = bench.data.values
        # block 0 is the linear SEM, block 1 the same SEM with nonlinear pairs
        return {
            "seed": seed,
            "a": np.ascontiguousarray(values[bench.labels == 0]),
            "b": np.ascontiguousarray(values[bench.labels == 1]),
        }

    def run(self, inputs, ops):
        t = self.threads
        indep_a = ops.call("indep_a", depcon.independence_test, inputs["a"], alpha=ALPHA, threads=t)
        indep_b = ops.call("indep_b", depcon.independence_test, inputs["b"], alpha=ALPHA, threads=t)
        comparison = ops.call(
            "two_sample",
            depcon.structure_difference_score,
            inputs["a"],
            inputs["b"],
            alpha=ALPHA,
            threads=t,
        )
        return {"indep_a": indep_a, "indep_b": indep_b, "two_sample": comparison}

    @staticmethod
    def _check_indep(ops, name, values, result, rng):
        n, m = values.shape
        stat = result.statistic
        expected_reject = stat > 0.0
        np.fill_diagonal(expected_reject, False)
        ops.expect(name, np.array_equal(result.reject, expected_reject), "reject != statistic > 0")
        ops.expect(name, np.array_equal(stat, stat.T), "statistic not symmetric")
        critical = n * reference.chi2_1df_quantile(1.0 - ALPHA)
        for _ in range(3):
            j, l = sorted(int(v) for v in rng.choice(m, size=2, replace=False))
            expected, scale = reference.aggregate_entry(values[:, j], values[:, l], ALPHA)
            err = abs(stat[j, l] - expected)
            ops.expect(
                name,
                err <= 1e-9 * max(1.0, scale, critical),
                f"statistic ({j},{l}) off the dCov reference by {err:.3g}",
            )

    def check(self, inputs, outputs, ops):
        rng = np.random.default_rng(inputs["seed"])
        for name, key in (("indep_a", "a"), ("indep_b", "b")):
            ops.checked(name, self._check_indep, ops, name, inputs[key], outputs[name], rng)
        comparison = outputs["two_sample"]
        stat_a, stat_b = comparison.statistic_a, comparison.statistic_b
        ops.expect(
            "two_sample",
            np.array_equal(stat_a, outputs["indep_a"].statistic)
            and np.array_equal(stat_b, outputs["indep_b"].statistic),
            "aggregate statistics differ from the independence tests'",
        )
        m = stat_a.shape[0]
        witnesses = tuple(
            (j, l)
            for j in range(m)
            for l in range(j + 1, m)
            if (stat_a[j, l] > 0.0) != (stat_b[j, l] > 0.0)
        )
        ops.expect("two_sample", comparison.witnesses == witnesses, "witnesses != sign disagreements")
        ops.expect(
            "two_sample",
            math.isfinite(comparison.score)
            and comparison.different_structure == (comparison.score < 0.0),
            "score flag",
        )
        return {}


class CliPipeline:
    """synth -> gram -> cluster -> kpca -> eval through depcon.cli.main, files on disk."""

    name = "cli-pipeline"
    plan = ("synth", "gram", "cluster", "kpca", "eval")
    models, samples, features = 6, 150, 8
    k_range = (2, 8)
    restarts = 3

    def setup(self, seed, ops, workdir):
        files = {
            key: workdir / name
            for key, name in (
                ("data", "bench.csv"),
                ("truth", "bench.json"),
                ("gram", "gram.csv"),
                ("labels", "labels.csv"),
                ("coords", "coords.csv"),
                ("scores", "scores.json"),
            )
        }
        ops.cli(
            "synth",
            ["synth", "-o", files["data"], "--models", self.models, "--samples", self.samples,
             "--features", self.features, "--nonlinear", "--seed", seed],
        )
        return {"seed": seed, "files": files, "workdir": workdir}

    def run(self, inputs, ops):
        f = inputs["files"]
        ops.cli("gram", ["gram", f["data"], "-o", f["gram"], "--alpha", ALPHA])
        lo, hi = self.k_range
        ops.cli(
            "cluster",
            ["cluster", f["gram"], "-o", f["labels"], "--k-range", lo, hi,
             "--restarts", self.restarts, "--seed", inputs["seed"]],
        )
        ops.cli("kpca", ["kpca", f["gram"], "-o", f["coords"], "-d", 2, "--labels", f["truth"]])
        ops.cli("eval", ["eval", f["labels"], "--truth", f["truth"], "-o", f["scores"]])
        return {}

    def _check_synth(self, ops, values, truth, seed):
        config = depcon.BenchmarkConfig(
            num_models=self.models,
            samples_per_model=self.samples,
            num_features=self.features,
            nonlinear=True,
            seed=seed,
        )
        bench = depcon.build_benchmark(config)
        ops.expect("synth", np.array_equal(values, bench.data.values), "dataset CSV != build_benchmark")
        ops.expect("synth", np.array_equal(truth, bench.labels), "sidecar labels != build_benchmark")

    @staticmethod
    def _check_gram_file(ops, path, gram, rng):
        lines = Path(path).read_text().splitlines()
        ops.expect("gram", len(lines) == gram.shape[0], "Gram CSV row count")
        for i in rng.choice(gram.shape[0], size=8, replace=False):
            row = np.array([float(cell) for cell in lines[i].split(",")])
            ops.expect("gram", np.array_equal(row, gram[i]), f"Gram CSV row {i} != in-memory Gram")

    def _check_cluster(self, ops, labels, gram, seed):
        lo, hi = self.k_range
        selection = depcon.select_k(gram, range(lo, hi + 1), "vrc", restarts=self.restarts, seed=seed)
        expected = selection.assignments[selection.best_k].labels
        ops.expect("cluster", np.array_equal(labels, expected), "labels != library select_k")

    @staticmethod
    def _check_kpca(ops, path, gram, truth):
        coords = depcon.kpca_transform(depcon.kpca_fit(gram, 2))
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        got = np.array([[float(c) for c in row[:2]] for row in rows[1:]])
        ops.expect("kpca", np.array_equal(got, coords), "coordinates != library kpca")
        got_labels = np.array([int(row[2]) for row in rows[1:]])
        ops.expect("kpca", np.array_equal(got_labels, truth), "label column != sidecar labels")

    @staticmethod
    def _check_eval(ops, ari, truth, labels):
        ops.expect("eval", ari == depcon.adjusted_rand_index(truth, labels), "ARI != library ARI")
        expected = reference.adjusted_rand(truth, labels)
        ops.expect("eval", abs(ari - expected) <= 1e-12, "ARI off the reference")

    def check(self, inputs, outputs, ops):
        f, seed = inputs["files"], inputs["seed"]
        rng = np.random.default_rng(seed)
        values = np.loadtxt(f["data"], delimiter=",")
        truth = np.asarray(json.loads(f["truth"].read_text())["labels"], dtype=np.int64)
        ops.checked("synth", self._check_synth, ops, values, truth, seed)
        gram = depcon.gram_matrix(values, alpha=ALPHA, threads=1).values
        ops.checked("gram", check_gram, ops, "gram", gram, values, rng)
        ops.checked("gram", self._check_gram_file, ops, f["gram"], gram, rng)
        labels = np.loadtxt(f["labels"], dtype=np.int64, ndmin=1)
        ops.checked("cluster", self._check_cluster, ops, labels, gram, seed)
        ops.checked("kpca", self._check_kpca, ops, f["coords"], gram, truth)
        ari = json.loads(f["scores"].read_text())["mean_ari"]
        ops.checked("eval", self._check_eval, ops, ari, truth, labels)
        # inputs of gram, cluster, kpca and eval, in that order
        read = [f["data"], f["gram"], f["gram"], f["truth"], f["labels"], f["truth"]]
        setup_files = {f["data"], f["truth"], Path(str(f["data"]) + ".provenance.json")}
        written = sum(
            p.stat().st_size for p in inputs["workdir"].iterdir() if p not in setup_files
        )
        return {
            "ari": ari,
            "cli.bytes_read": sum(p.stat().st_size for p in read),
            "cli.bytes_written": written,
        }


WORKLOADS = {w.name: w for w in (ClusterSelect, TestsLarge, CliPipeline)}
