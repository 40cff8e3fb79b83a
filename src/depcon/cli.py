"""Command-line pipelines: gram, indep, test, synth, cluster, kpca, eval, graphdist.

Every output carries a provenance block (JSON outputs embed it, CSV
outputs get a ``<name>.provenance.json`` sidecar) recording the
subcommand, math-relevant configuration, seed, and library version.
The thread count is excluded, so reruns are byte-identical regardless of
parallelism. Each command runs with NumPy's OpenBLAS pinned to one thread,
since a product split across threads rounds differently.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import _gram_values, _select, _symmetric, adjusted_rand_index, select_k
from .critical import CriticalScale
from .dataset import _filled_rows, _integer, _read_table, load_dataset, load_dataset_json
from .embedding import kpca_fit, kpca_transform
from .errors import (
    DepconError,
    GramRangeError,
    LengthMismatchError,
    NonNumericCellError,
    NotSquareError,
)
from .graphs import graph_distance, graph_from_json, representative
from .inference import independence_test, structure_difference_score
from .kernel import BACKEND_NAME, gram_matrix
from .synth import BenchmarkConfig, build_benchmark, model_descriptor

EXIT_FILE_NOT_FOUND = 2
EXIT_IO_ERROR = 3
EXIT_USAGE = 4


def _fmt(value: float) -> str:
    return repr(float(value))


def _provenance(command: str, config: dict) -> dict:
    clean = {
        key: value
        for key, value in config.items()
        if key not in ("threads", "func") and value is not None
    }
    return {
        "tool": "depcon",
        "version": __version__,
        "backend": BACKEND_NAME,
        "command": command,
        "config": clean,
    }


def _write_json(path, payload: dict, matrices=()):
    """Sorted keys, indent 2; each row of the top-level lists of rows named in
    ``matrices`` goes on one line, so an m x m 0/1 relation takes m lines."""
    # argv and JSON keys hold no NUL, so each placeholder string is unique
    slots = {key: f"\0{key}" for key in matrices}
    text = json.dumps({**payload, **slots}, indent=2, sort_keys=True)
    for key, slot in slots.items():
        rows = ",\n".join("    " + json.dumps(row) for row in payload[key])
        text = text.replace(json.dumps(slot), f"[\n{rows}\n  ]" if rows else "[]")
    Path(path).write_text(text + "\n")


def _matrix_rows(matrix: np.ndarray, sep: bytes):
    """Each row of ``matrix`` as its cells' shortest round-trip reprs joined by ``sep``.

    A square matrix equal to its transpose bit for bit (a Gram; ``-0.0``
    mirrored by ``0.0`` does not count) is streamed row by row: the cells of
    row i from the diagonal on are ``repr``'d into one fixed-width table of
    the upper triangle, and the cells left of the diagonal are read back from
    the rows above, so each mirrored pair is ``repr``'d once. 24 ASCII
    characters hold any float64 repr, such as ``-2.2250738585072014e-308``.
    Any other matrix is ``repr``'d cell by cell, a row at a time.
    """
    text_sep = sep.decode()
    n = matrix.shape[0]
    if matrix.shape[1] != n or not _symmetric(matrix.view(np.uint64)):
        for row in matrix:
            yield text_sep.join(map(repr, row.tolist())).encode()
        return
    # row i's cells from the diagonal on, rows one after another
    upper = np.empty(n * (n + 1) // 2, dtype="S24")
    starts = np.concatenate(([0], np.cumsum(np.arange(n, 0, -1))))
    for i, row in enumerate(matrix):
        own = [repr(v) for v in row[i:].tolist()]
        upper[starts[i]:starts[i + 1]] = own
        left = upper[starts[:i] + np.arange(i, 0, -1)].tolist()  # (j, i) of each row j < i
        yield sep.join(left + [text_sep.join(own).encode()])


def _write_matrix_csv(path, matrix: np.ndarray, provenance: dict):
    """One row per line, each cell the shortest round-trip repr of its float64."""
    matrix = np.ascontiguousarray(np.atleast_2d(matrix), dtype=np.float64)
    with open(path, "wb") as handle:
        for line in _matrix_rows(matrix, b","):
            handle.write(line + b"\n")
    _write_json(str(path) + ".provenance.json", provenance)


def _write_gram_json(path, gram: np.ndarray, provenance: dict):
    """``{"provenance": ..., "values": rows}`` exactly as ``_write_json`` writes it
    (``json.dumps`` with indent 2), with the rows streamed as they are formed."""
    if not np.isfinite(gram).all():  # JSON spells NaN and infinities its own way
        _write_json(path, {"values": gram.tolist(), "provenance": provenance})
        return
    slot = json.dumps("\0values")  # argv and JSON keys hold no NUL, so it is unique
    text = json.dumps({"provenance": provenance, "values": "\0values"}, indent=2, sort_keys=True)
    head, tail = text.split(slot)
    with open(path, "wb") as handle:
        handle.write(head.encode() + b"[")
        for i, row in enumerate(_matrix_rows(gram, b",\n      ")):
            handle.write((b",\n" if i else b"\n") + b"    [\n      " + row + b"\n    ]")
        handle.write(b"\n  ]" + tail.encode() + b"\n")


def _load_any_dataset(path):
    path = Path(path)
    if path.suffix.lower() == ".json":
        return load_dataset_json(path)
    return load_dataset(path, has_header=_sniff_header(path))


def _sniff_header(path) -> bool:
    """Whether the first filled row, the one ``load_dataset`` would take as
    the header, has a cell that is not a number."""
    # undecodable bytes and unreadable CSV are left for load_dataset to report
    try:
        with open(path, "r", newline="", encoding="utf-8", errors="replace") as handle:
            first = next(_filled_rows(csv.reader(handle)), [])
    except csv.Error:
        return False
    try:
        [float(cell) for cell in first]
    except ValueError:
        return True
    return False


def _load_matrix(path) -> np.ndarray:
    """A Gram file's finite matrix: CSV, or JSON ``{"values": rows}`` by extension."""
    json_key = "values" if Path(path).suffix.lower() == ".json" else None
    return _read_table(path, NotSquareError, json_key=json_key)[1]


def _load_gram(path) -> np.ndarray:
    """A kappa Gram file: a finite matrix with entries in [-1, 1] up to rounding."""
    gram = _load_matrix(path)
    # max and min first, so an in-range Gram needs no n x n mask
    bound = 1.0 + 1e-9
    if gram.max(initial=-bound) > bound or gram.min(initial=bound) < -bound:
        r, c = np.argwhere(np.abs(gram) > bound)[0]
        raise GramRangeError(
            f"{Path(path).name}: kappa value {float(gram[r, c])!r} at ({r}, {c}) outside [-1, 1]"
        )
    return gram


def _label(r, value) -> int:
    """``value`` as a label: an integral number within the int64 range."""
    label = _integer(value)
    if label is None or not -(2**63) <= label < 2**63:
        raise NonNumericCellError(r, 0, repr(value))
    return label


def _load_labels(path) -> np.ndarray:
    """Integer labels: a JSON ``labels`` list, or the first cell of each CSV row.

    Only the first CSV row may be a non-numeric header. A JSON file that is
    not JSON or has no ``labels`` list holds no labels at all.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # undecodable bytes or JSON
            raise LengthMismatchError(f"{path}: not valid JSON: {exc}") from None
        labels = payload.get("labels") if isinstance(payload, dict) else None
        if not isinstance(labels, list):
            raise LengthMismatchError(f"{path}: no 'labels' list")
        return np.asarray([_label(r, value) for r, value in enumerate(labels)], dtype=np.int64)
    try:
        with open(path, "r", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a cell beyond csv's size limit
        raise LengthMismatchError(f"{path}: unreadable text ({exc})") from None
    values = []
    first = True
    for r, row in enumerate(rows):
        if not row or row[0].strip() == "":
            continue
        try:
            value = float(row[0])
        except ValueError:
            if not first:
                raise NonNumericCellError(r, 0, row[0].strip()) from None
        else:
            values.append(_label(r, value))
        first = False
    return np.asarray(values, dtype=np.int64)


def cmd_gram(args) -> int:
    data = _load_any_dataset(args.data)
    gram = gram_matrix(data, alpha=args.alpha, convention=args.convention, threads=args.threads)
    prov = _provenance("gram", vars(args))
    if args.format == "json":
        _write_gram_json(args.output, gram.values, prov)
    else:
        _write_matrix_csv(args.output, gram.values, prov)
    return 0


def cmd_indep(args) -> int:
    data = _load_any_dataset(args.data)
    result = independence_test(
        data, alpha=args.alpha, convention=args.convention, threads=args.threads
    )
    payload = {
        "alpha": result.alpha,
        "convention": result.convention.value,
        "pairs": result.pairs(),
        "provenance": _provenance("indep", vars(args)),
    }
    _write_json(args.output, payload)
    return 0


def _comparison_payload(data_a, data_b, alpha, convention, threads):
    result = structure_difference_score(
        data_a, data_b, alpha=alpha, convention=convention, threads=threads
    )
    return {
        "score": result.score,
        "different_structure": result.different_structure,
        "witnesses": [{"i": j, "j": j2} for j, j2 in result.witnesses],
    }


def cmd_test(args) -> int:
    data_a = _load_any_dataset(args.data_a)
    data_b = _load_any_dataset(args.data_b)
    if args.both_conventions:
        payload = {
            convention.value: _comparison_payload(
                data_a, data_b, args.alpha, convention, args.threads
            )
            for convention in CriticalScale
        }
    else:
        payload = _comparison_payload(data_a, data_b, args.alpha, args.convention, args.threads)
    payload["alpha"] = args.alpha
    payload["provenance"] = _provenance("test", vars(args))
    _write_json(args.output, payload)
    return 0


def cmd_synth(args) -> int:
    config = BenchmarkConfig(
        num_models=args.models,
        samples_per_model=args.samples,
        num_features=args.features,
        edge_probability=args.edge_prob,
        nonlinear=args.nonlinear,
        seed=args.seed,
        amplitude=args.amplitude,
        max_pairs=args.max_pairs,
    )
    bench = build_benchmark(config)
    prov = _provenance("synth", vars(args))
    _write_matrix_csv(args.output, bench.data.values, prov)
    sidecar = {
        "labels": bench.labels.tolist(),
        "models": [model_descriptor(model) for model in bench.models],
        "config": config.to_dict(),
        "seed": args.seed,
        "provenance": prov,
    }
    _write_json(Path(args.output).with_suffix(".json"), sidecar)
    return 0


def cmd_cluster(args) -> int:
    gram = _load_gram(args.gram)
    if args.k is not None:
        # one k, seeded by --seed itself; unlike select_k, k = n is allowed
        result = _select(
            _gram_values(gram), [(args.k, args.seed)], args.criterion,
            args.init, args.max_iter, args.restarts,
        )
    else:
        lo, hi = args.k_range
        result = select_k(
            gram,
            range(lo, hi + 1),
            args.criterion,
            init=args.init,
            max_iter=args.max_iter,
            restarts=args.restarts,
            seed=args.seed,
        )
    chosen = result.assignments[result.best_k]
    Path(args.output).write_text("".join(f"{int(v)}\n" for v in chosen.labels))
    prov = _provenance("cluster", vars(args))
    report = {
        "best_k": result.best_k,
        "criterion": args.criterion,
        "criterion_space": "kernel",
        "scores": {str(k): result.scores[k] for k in sorted(result.scores)},
        "objective": chosen.objective,
        "objective_trace": list(chosen.objective_trace),
        "iterations": chosen.iterations,
        "converged": chosen.converged,
        "labels": chosen.labels.tolist(),
        "provenance": prov,
    }
    _write_json(args.report or str(args.output) + ".report.json", report)
    return 0


def cmd_kpca(args) -> int:
    gram = _load_gram(args.gram)
    labels = _load_labels(args.labels) if args.labels else None
    if labels is not None and labels.size != gram.shape[0]:
        raise LengthMismatchError(f"{labels.size} labels for a Gram of {gram.shape[0]} samples")
    model = kpca_fit(gram, args.components)
    coords = kpca_transform(model)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = [f"component_{i}" for i in range(coords.shape[1])]
    if labels is not None:
        header.append("label")
    writer.writerow(header)
    for idx, row in enumerate(coords):
        out = [_fmt(v) for v in row]
        if labels is not None:
            out.append(str(int(labels[idx])))
        writer.writerow(out)
    Path(args.output).write_text(buf.getvalue())
    _write_json(str(args.output) + ".provenance.json", _provenance("kpca", vars(args)))
    return 0


def cmd_eval(args) -> int:
    truth = _load_labels(args.truth)
    rows = []
    for pred_path in args.predictions:
        pred = _load_labels(pred_path)
        rows.append(
            {
                "name": Path(pred_path).name,
                "ari": adjusted_rand_index(truth, pred),
                "k": int(np.unique(pred).size),
            }
        )
    histogram = {}
    for row in rows:
        histogram[row["k"]] = histogram.get(row["k"], 0) + 1
    payload = {
        "per_input": rows,
        "mean_ari": float(np.mean([row["ari"] for row in rows])),
        "k_histogram": {str(k): histogram[k] for k in sorted(histogram)},
        "provenance": _provenance("eval", vars(args)),
    }
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "ari", "k"])
        for row in rows:
            writer.writerow([row["name"], _fmt(row["ari"]), row["k"]])
        Path(args.output).write_text(buf.getvalue())
        _write_json(str(args.output) + ".provenance.json", payload["provenance"])
    else:
        _write_json(args.output, payload)
    return 0


def cmd_graphdist(args) -> int:
    graph_a = graph_from_json(Path(args.graph_a).read_bytes())
    graph_b = graph_from_json(Path(args.graph_b).read_bytes())
    rep_a = representative(graph_a)
    rep_b = representative(graph_b)
    payload = {
        "vertices": graph_a.m,
        "distance": graph_distance(rep_a, rep_b),
        "connected_a": rep_a.connected.astype(int).tolist(),
        "connected_b": rep_b.connected.astype(int).tolist(),
        "provenance": _provenance("graphdist", vars(args)),
    }
    _write_json(args.output, payload, matrices=("connected_a", "connected_b"))
    return 0


def _add_common(parser):
    parser.add_argument("--alpha", type=float, default=0.1, help="significance level")
    parser.add_argument(
        "--convention",
        choices=[c.value for c in CriticalScale],
        default=CriticalScale.SZEKELY.value,
        help="critical-value scaling",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads, at most one per CPU (default: "
                             "DEPCON_THREADS or 1); never changes the output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depcon",
        description="Dependence contribution kernel pipelines",
    )
    parser.add_argument("--version", action="version", version=f"depcon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gram", help="kernel matrix of a dataset")
    p.add_argument("data")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("indep", help="pairwise independence decisions")
    p.add_argument("data")
    p.add_argument("-o", "--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_indep)

    p = sub.add_parser("test", help="two-sample structure comparison")
    p.add_argument("data_a")
    p.add_argument("data_b")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--both-conventions", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("synth", help="generate a labeled benchmark")
    p.add_argument("-o", "--output", required=True, help="dataset CSV path")
    p.add_argument("--models", type=int, default=6)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--features", type=int, default=10)
    p.add_argument("--edge-prob", type=float, default=0.3)
    p.add_argument("--nonlinear", action="store_true")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--max-pairs", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cluster", help="kernel k-means over a Gram file")
    p.add_argument("gram")
    p.add_argument("-o", "--output", required=True, help="labels CSV path")
    p.add_argument("--report", default=None, help="JSON report path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-k", type=int, default=None)
    group.add_argument("--k-range", type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--criterion", choices=["vrc", "silhouette"], default="vrc")
    p.add_argument("--init", choices=["plusplus", "random"], default="plusplus")
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("kpca", help="kernel PCA coordinates from a Gram file")
    p.add_argument("gram")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("-d", "--components", type=int, default=2)
    p.add_argument("--labels", default=None, help="optional labels file for a label column")
    p.set_defaults(func=cmd_kpca)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("predictions", nargs="+")
    p.add_argument("--truth", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("graphdist", help="distance between two mixed graphs")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_graphdist)

    return parser


@functools.cache
def _openblas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS bundled with NumPy's
    wheels, or None, with one warning, when no such library is loaded."""
    import ctypes

    for path in sorted(Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            return get, put
    warnings.warn(
        "cannot set the BLAS thread count; outputs may differ in their last bits between "
        "machines with different core counts",
        RuntimeWarning,
    )
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with NumPy's OpenBLAS on one thread, then restore its old count."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        with _one_blas_thread():
            return args.func(args)
    except DepconError as exc:
        print(f"depcon {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"depcon {args.command}: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_FILE_NOT_FOUND
    except OSError as exc:
        print(f"depcon {args.command}: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
