"""Span tracer that measures depcon's layers from outside the package.

Every public function of a measured module is replaced, in each depcon
module namespace that binds it, by a wrapper that records a span: name,
layer, start, end, parent span and operation id. Spans stay in memory;
the worker hands them to the runner, which writes them out at the end.

`layer_metrics` turns one pass's spans into the per-layer metrics named in
BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

#: Package modules measured as layers. ``critical`` and ``graphs`` are left
#: out: they take microseconds and lie on no hot path.
LAYERS = ("synth", "dataset", "kernel", "inference", "clustering", "embedding", "cli")


def _rows(args, kwargs, result):
    return {"rows": int(result.values.shape[0])}


def _features(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _gram(args, kwargs, result):
    return {"cells": int(result.values.size)}


def _kmeans(args, kwargs, result):
    restarts = 1 if kwargs.get("init_labels") is not None else max(1, kwargs.get("restarts", 10))
    return {"restarts": restarts, "iterations": result.iterations, "repairs": result.repairs}


#: Counters recorded at the boundary of a span, from its arguments and result.
COUNTERS = {
    "dataset.load_dataset": _rows,
    "dataset.load_dataset_json": _rows,
    "kernel.contribution_features": _features,
    "kernel.gram_matrix": _gram,
    "clustering.kernel_kmeans": _kmeans,
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans = []
        self.active = True
        self._stack = []
        self._op = None

    def set_operation(self, op_id):
        self._op = op_id

    def wrap(self, layer, name, fn):
        full = f"{layer}.{name}"
        counter = COUNTERS.get(full)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = {
                "id": len(self.spans),
                "name": full,
                "layer": layer,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "op": self._op,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span["counters"] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap each public function of every layer wherever depcon binds it."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"depcon.{layer}")
            for name, value in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrapped[value] = self.wrap(layer, name, value)
        for module_name, module in list(sys.modules.items()):
            if module_name != "depcon" and not module_name.startswith("depcon."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])


def _duration(span):
    return span["end"] - span["start"]


def _self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    child_time = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + _duration(span)
    return {span["id"]: _duration(span) - child_time.get(span["id"], 0.0) for span in spans}


def _union_length(intervals):
    total = 0.0
    end = None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def layer_metrics(spans, run_start, run_end):
    """Per-layer metrics of one traced pass (setup spans included)."""
    by_id = {span["id"]: span for span in spans}
    self_time = _self_times(spans)

    def named(name):
        return [span for span in spans if span["name"] == name]

    def total(name):
        return sum(_duration(span) for span in named(name))

    def self_total(name):
        return sum(self_time[span["id"]] for span in named(name))

    def counter(name, key):
        return sum(span.get("counters", {}).get(key, 0) for span in named(name))

    def layer_time(layer):
        # outermost spans of the layer, so nested calls inside it count once
        return sum(
            _duration(span)
            for span in spans
            if span["layer"] == layer
            and (span["parent"] is None or by_id[span["parent"]]["layer"] != layer)
        )

    restarts = counter("clustering.kernel_kmeans", "restarts")
    kmeans_s = total("clustering.kernel_kmeans")
    covered = _union_length(
        (max(span["start"], run_start), min(span["end"], run_end))
        for span in spans
        if span["parent"] is None and span["end"] > run_start and span["start"] < run_end
    )
    return {
        "synth.build_s": layer_time("synth"),
        "dataset.load_s": layer_time("dataset"),
        "dataset.rows": counter("dataset.load_dataset", "rows")
        + counter("dataset.load_dataset_json", "rows"),
        "kernel.moments_s": total("kernel.distance_moments"),
        "kernel.features_s": total("kernel.contribution_features"),
        "kernel.features_calls": len(named("kernel.contribution_features")),
        "kernel.features_bytes": counter("kernel.contribution_features", "bytes"),
        "kernel.gram_self_s": self_total("kernel.gram_matrix"),
        "kernel.gram_cells": counter("kernel.gram_matrix", "cells"),
        "inference.indep_self_s": self_total("inference.independence_test"),
        "inference.aggregate_s": total("inference.aggregate_statistic"),
        "inference.two_sample_self_s": self_total("inference.structure_difference_score"),
        "clustering.select_k_s": total("clustering.select_k"),
        "clustering.kmeans_s": kmeans_s,
        "clustering.kmeans_calls": len(named("clustering.kernel_kmeans")),
        "clustering.kmeans_s_per_restart": kmeans_s / restarts if restarts else 0.0,
        "clustering.best_iters": counter("clustering.kernel_kmeans", "iterations"),
        "clustering.repairs": counter("clustering.kernel_kmeans", "repairs"),
        "clustering.vrc_s": total("clustering.variance_ratio_criterion"),
        "embedding.kpca_fit_s": total("embedding.kpca_fit"),
        "embedding.kpca_transform_s": total("embedding.kpca_transform"),
        "cli.synth_s": total("cli.cmd_synth"),
        "cli.gram_s": total("cli.cmd_gram"),
        "cli.cluster_s": total("cli.cmd_cluster"),
        "cli.kpca_s": total("cli.cmd_kpca"),
        "cli.eval_s": total("cli.cmd_eval"),
        "cli.io_self_s": sum(
            self_time[span["id"]] for span in spans if span["layer"] == "cli"
        ),
        "unattributed_s": (run_end - run_start) - covered,
    }
