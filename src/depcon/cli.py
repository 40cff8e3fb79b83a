"""Command-line pipelines: gram, indep, test, synth, cluster, kpca, eval, graphdist.

Every output carries a provenance block (JSON outputs embed it, CSV
outputs get a ``<name>.provenance.json`` sidecar) recording the
subcommand, math-relevant configuration, seed, and library version.
The thread count is excluded, so reruns are byte-identical regardless of
parallelism. Each command runs with NumPy's OpenBLAS pinned to one thread,
since a product split across threads rounds differently. A command writes all
of its files or none (``_publish``); the README's CLI section gives the rules.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import _gram_values, _select, adjusted_rand_index, select_k
from .dataset import (
    _check_finite,
    _is_json,
    _load_any_dataset,
    _load_gram,
    _load_labels,
    _twin_outputs,
    _twin_path,
)
from .embedding import kpca_fit, kpca_transform
from .errors import DepconError, LengthMismatchError, NonFiniteValueError
from .graphs import graph_distance, graph_from_json, representative
from .inference import independence_test, structure_difference_score
from .kernel import BACKEND_NAME, GRAM_BAND_ROWS, _gram_bands, _unit_vectors
from .synth import BenchmarkConfig, build_benchmark, model_descriptor

EXIT_FILE_NOT_FOUND = 2
EXIT_IO_ERROR = 3
EXIT_USAGE = 4
EXIT_OUT_OF_MEMORY = 18
#: Commands whose -o is CSV whatever its name; a .json name would be read back as JSON
CSV_OUTPUT_COMMANDS = ("synth", "cluster", "kpca")


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


def _json_text(payload, **layout) -> str:
    """``json.dumps``; NonFiniteValueError for a NaN or infinite number, which
    standard JSON cannot spell."""
    try:
        return json.dumps(payload, allow_nan=False, **layout)
    except ValueError as exc:
        raise NonFiniteValueError(f"cannot write a non-finite number as JSON: {exc}") from None


def _json_chunks(payload: dict, rows=None):
    """The bytes of ``payload`` with sorted keys and indent 2, as one
    ``json.dumps`` writes them. Each list that ``rows`` names is streamed from
    its iterable of preformatted rows (bytes), one per line; the payload is
    formatted, and a NaN or infinity refused, before the first chunk."""
    rows = rows or {}
    # argv and JSON keys hold no NUL, so each placeholder string is unique
    text = _json_text({**payload, **{key: f"\0{key}" for key in rows}}, indent=2, sort_keys=True)
    for key in sorted(rows):  # the placeholders' order in the text
        head, text = text.split(json.dumps(f"\0{key}"))
        yield head.encode() + b"["
        count = 0
        for count, row in enumerate(rows[key], 1):
            yield (b",\n    " if count > 1 else b"\n    ") + row
        yield b"\n  ]" if count else b"]"
    yield text.encode() + b"\n"


#: Rows of one ``orjson.dumps`` call in ``_matrix_rows``.
_MATRIX_BLOCK_ROWS = 1024


def _odd(values: np.ndarray) -> np.ndarray:
    """Where orjson's text for ``values`` is not ``repr``'s: orjson writes the
    same shortest round-trip digits and, for ±0 and every |x| in [1e-4, 1e16),
    the same text; outside that range only its exponent is spelled otherwise
    (``1e-5``, ``1e16``) and a NaN or infinity is ``null``."""
    size = np.abs(values)
    return ~((size >= 1e-4) & (size < 1e16)) & (values != 0.0)


def _cells(row: np.ndarray, sep: bytes) -> bytes:
    """The cells of a C-contiguous float64 ``row`` as their shortest round-trip
    reprs joined by ``sep``: ``sep.join(map(repr, row.tolist())).encode()``.
    orjson formats the row, and each ``_odd`` cell is ``repr``'d in its place."""
    import orjson

    text = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    odd = np.flatnonzero(_odd(row))
    if odd.size:
        cells = text.split(b",")
        for i in odd.tolist():
            cells[i] = repr(float(row[i])).encode()
        text = b",".join(cells)
    return text if sep == b"," else text.replace(b",", sep)


def _matrix_rows(matrix: np.ndarray, sep: bytes):
    """Each row of the float ``matrix`` as ``_cells`` joined by ``sep``.

    A block of ``_MATRIX_BLOCK_ROWS`` rows with no ``_odd`` cell is formatted
    by one ``orjson.dumps`` and split between its rows, so a narrow row does
    not pay ``_cells``' fixed cost; any other block goes row by row."""
    import orjson

    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    for start in range(0, matrix.shape[0], _MATRIX_BLOCK_ROWS):
        block = matrix[start:start + _MATRIX_BLOCK_ROWS]
        if _odd(block).any():
            rows = (_cells(row, sep) for row in block)
        else:
            rows = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
            if sep != b",":
                rows = (row.replace(b",", sep) for row in rows)
        yield from rows


def _gram_rows(u: np.ndarray, sep: bytes):
    """Each row of the Gram of the unit vectors ``u`` as ``_cells`` joined by
    ``sep``, the cells of ``gram_matrix``'s Gram.

    The upper triangle comes a band at a time from ``_gram_bands``; a cell
    left of the diagonal is its mirror, read back from the upper triangle of
    the band's own columns or from a block an earlier band kept. Each band
    keeps one float64 block per later band's columns, dropped once that band
    is written, so the blocks hold about n^2/4 cells at most. A non-finite
    band is NonFiniteValueError.
    """
    n = u.shape[0]
    buffer = np.empty((GRAM_BAND_ROWS, n))  # a band's rows whole; every band reuses it
    # blocks[c]: per band above the band at c, its (rows, width) cells in that band's columns
    blocks = {}
    for start, band in _gram_bands(u):
        rows = band.shape[0]  # only a last band is shorter
        stop = start + rows
        _check_finite(band, f"the Gram's rows {start}..{stop - 1} from column {start}")
        full = buffer[:rows]
        for i, block in enumerate(blocks.pop(start, [])):
            full[:, i * GRAM_BAND_ROWS:(i + 1) * GRAM_BAND_ROWS] = block.T
        own = band[:, :rows]
        full[:, start:stop] = np.where(np.tri(rows, k=-1, dtype=bool), own.T, own)
        full[:, stop:] = band[:, rows:]
        for c in range(stop, n, rows):
            blocks.setdefault(c, []).append(band[:, c - start:c - start + rows].copy())
        for row in full:
            yield _cells(row, sep)


def _csv_outputs(path, lines, provenance: dict):
    """``_publish``'s pairs: a CSV file, a line per row of ``lines`` (bytes), and its sidecar."""
    sidecar = (f"{path}.provenance.json", _json_chunks(provenance))
    return (path, (line + b"\n" for line in lines)), sidecar


def _inputs(args):
    """The files the command of ``args`` may read, which no output may name: a
    Gram's twin counts when it exists, since ``_load_gram`` may read it."""
    named = ("data", "data_a", "data_b", "gram", "labels", "truth", "graph_a", "graph_b")
    paths = [getattr(args, key, None) for key in named] + getattr(args, "predictions", [])
    if getattr(args, "gram", None) is not None and os.path.exists(_twin_path(args.gram)):
        paths.append(_twin_path(args.gram))
    return [path for path in paths if path is not None]


def _target(path):
    """An output ``path``'s resolved directory and name; a symlink at the path
    itself is replaced, so it is not followed."""
    head, name = os.path.split(path)
    return os.path.realpath(head), name


def _refuse_inputs(paths, inputs):
    """OSError for the first of the output ``paths`` that names the file one
    of ``inputs`` resolves to."""
    read = {os.path.split(os.path.realpath(path)) for path in inputs}
    for path in paths:
        if _target(path) in read:
            raise OSError(f"{path}: names an input of the command")


def _publish(*outputs, inputs=()):
    """Stream each ``(path, chunks of bytes)`` to a temporary beside ``path`` and
    move them all into place once all are complete; on any exception remove
    them and raise it again, naming ``path``. An output path that names the
    file one of ``inputs`` resolves to is refused before anything is written,
    and so are two paths with one resolved directory and one name."""
    _refuse_inputs([path for path, _ in outputs], inputs)
    targets = set()
    for path, _ in outputs:
        target = _target(path)
        if target in targets:
            raise OSError(f"{path}: named by two outputs of one command")
        targets.add(target)
    temps = []
    try:
        for index, (path, chunks) in enumerate(outputs):
            if os.path.exists(path) and not os.path.isfile(path):
                raise OSError(f"{path}: not a regular file")
            temp = f"{path}.{os.getpid()}.{index}.tmp"
            with open(temp, "xb") as handle:  # 0666 less the umask; tempfile's are 0600
                temps.append(temp)
                if os.path.exists(path):  # a rerun keeps the mode of the file it replaces
                    os.chmod(temp, os.stat(path).st_mode & 0o7777)
                handle.writelines(chunks)
        for temp, (path, _) in zip(temps, outputs):
            os.replace(temp, path)
    except BaseException as exc:
        for temp in filter(os.path.exists, temps):
            os.remove(temp)
        if isinstance(exc, OSError) and exc.filename is not None:
            exc.filename, exc.filename2 = path, None  # the path given, not the temporary
        raise


def cmd_gram(args) -> int:
    data = _load_any_dataset(args.data)
    # the unit vectors gram_matrix uses; the file is streamed from them in bands
    units = _unit_vectors(data, args.alpha, args.threads)
    prov = _provenance("gram", vars(args))
    if _is_json(args.output):
        rows = (b"[\n      " + row + b"\n    ]" for row in _gram_rows(units, b",\n      "))
        outputs = [(args.output, _json_chunks({"provenance": prov}, rows={"values": rows}))]
    else:
        outputs = list(_csv_outputs(args.output, _gram_rows(units, b","), prov))
    # the twin follows the file it digests, and a sidecar stays last
    outputs[:1] = _twin_outputs(outputs[0], units.shape[0], _gram_bands(units))
    _publish(*outputs, inputs=_inputs(args))
    return 0


def cmd_indep(args) -> int:
    data = _load_any_dataset(args.data)
    result = independence_test(data, alpha=args.alpha, threads=args.threads)
    payload = {
        "alpha": result.alpha,
        "pairs": result.pairs(),
        "provenance": _provenance("indep", vars(args)),
    }
    _publish((args.output, _json_chunks(payload)), inputs=_inputs(args))
    return 0


def cmd_test(args) -> int:
    data_a = _load_any_dataset(args.data_a)
    data_b = _load_any_dataset(args.data_b)
    result = structure_difference_score(data_a, data_b, alpha=args.alpha, threads=args.threads)
    payload = {
        "score": result.score,
        "different_structure": result.different_structure,
        "witnesses": [{"i": j, "j": j2} for j, j2 in result.witnesses],
        "alpha": args.alpha,
        "provenance": _provenance("test", vars(args)),
    }
    _publish((args.output, _json_chunks(payload)), inputs=_inputs(args))
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
    sidecar = {
        "labels": bench.labels.tolist(),
        "models": [model_descriptor(model) for model in bench.models],
        "config": config.to_dict(),
        "seed": args.seed,
        "provenance": prov,
    }
    data, provenance = _csv_outputs(args.output, _matrix_rows(bench.data.values, b","), prov)
    _publish(data, (Path(args.output).with_suffix(".json"), _json_chunks(sidecar)), provenance)
    return 0


def cmd_cluster(args) -> int:
    gram = _load_gram(args.gram)
    if args.k is not None:
        # one k, seeded by --seed itself; unlike select_k, k = n is allowed for the
        # silhouette (VRC needs k < n)
        result = _select(
            _gram_values(gram), [(args.k, args.seed)], args.criterion, args.max_iter, args.restarts
        )
    else:
        lo, hi = args.k_range
        result = select_k(
            gram,
            range(lo, hi + 1),
            args.criterion,
            max_iter=args.max_iter,
            restarts=args.restarts,
            seed=args.seed,
        )
    chosen = result.assignments[result.best_k]
    report = {
        "best_k": result.best_k,
        "criterion": args.criterion,
        "criterion_space": "kernel",
        # inf (a partition with no within dispersion) has no JSON number: null
        "scores": {
            str(k): score if math.isfinite(score) else None
            for k, score in sorted(result.scores.items())
        },
        "objective": chosen.objective,
        "objective_trace": list(chosen.objective_trace),
        "iterations": chosen.iterations,
        "converged": chosen.converged,
        "labels": chosen.labels.tolist(),
        "provenance": _provenance("cluster", vars(args)),
    }
    labels = (b"%d\n" % label for label in chosen.labels.tolist())
    report_path = f"{args.output}.report.json" if args.report is None else args.report
    _publish((args.output, labels), (report_path, _json_chunks(report)), inputs=_inputs(args))
    return 0


def cmd_kpca(args) -> int:
    gram = _load_gram(args.gram)
    labels = None if args.labels is None else _load_labels(args.labels)
    if labels is not None and labels.size != gram.shape[0]:
        raise LengthMismatchError(f"{labels.size} labels for a Gram of {gram.shape[0]} samples")
    model = kpca_fit(gram, args.components)
    coords = kpca_transform(model)
    header = [f"component_{i}" for i in range(coords.shape[1])]
    lines = _matrix_rows(coords, b",")
    if labels is not None:
        header.append("label")
        lines = (line + b",%d" % label for line, label in zip(lines, labels.tolist()))
    lines = [",".join(header).encode(), *lines]
    outputs = _csv_outputs(args.output, lines, _provenance("kpca", vars(args)))
    _publish(*outputs, inputs=_inputs(args))
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
    if _is_json(args.output):
        _publish((args.output, _json_chunks(payload)), inputs=_inputs(args))
    else:
        buf = io.StringIO()  # csv quotes a name that holds a comma, quote or newline
        csv.writer(buf, lineterminator="\n").writerows(
            [["name", "ari", "k"]]
            + [[row["name"], repr(float(row["ari"])), row["k"]] for row in rows]
        )
        lines = [line.encode(errors="surrogateescape") for line in buf.getvalue().split("\n")[:-1]]
        _publish(*_csv_outputs(args.output, lines, payload["provenance"]), inputs=_inputs(args))
    return 0


def cmd_graphdist(args) -> int:
    graph_a = graph_from_json(Path(args.graph_a).read_bytes())
    graph_b = graph_from_json(Path(args.graph_b).read_bytes())
    rep_a = representative(graph_a)
    rep_b = representative(graph_b)
    payload = {
        "vertices": graph_a.m,
        "distance": graph_distance(rep_a, rep_b),
        "provenance": _provenance("graphdist", vars(args)),
    }
    # each row of an m x m 0/1 relation on one line, so it takes m lines
    rows = {
        key: [_json_text(row).encode() for row in rep.connected.astype(int).tolist()]
        for key, rep in (("connected_a", rep_a), ("connected_b", rep_b))
    }
    _publish((args.output, _json_chunks(payload, rows=rows)), inputs=_inputs(args))
    return 0


def _add_common(parser):
    parser.add_argument("--alpha", type=float, default=0.1, help="significance level")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads, at most one per CPU (default 1); "
                             "never changes the output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depcon",
        description="Dependence contribution kernel pipelines",
    )
    parser.add_argument("--version", action="version", version=f"depcon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gram", help="kernel matrix of a dataset")
    p.add_argument("data")
    p.add_argument("-o", "--output", required=True, help="JSON if it ends in .json, else CSV")
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
    p.add_argument("-o", "--output", required=True, help="JSON if it ends in .json, else CSV")
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
    named = [name for name in (args.output, getattr(args, "report", None)) if name is not None]
    for name in named:
        if os.path.basename(name) in ("", ".", ".."):
            print(f"depcon {args.command}: output name {name!r} ends in no file name",
                  file=sys.stderr)
            return EXIT_USAGE
    if args.command in CSV_OUTPUT_COMMANDS and _is_json(args.output):
        print(f"depcon {args.command}: {args.output}: writes CSV, so its name may not end "
              f"in .json", file=sys.stderr)
        return EXIT_USAGE
    try:
        # -o or --report naming an input is refused before any input is read;
        # only _publish sees twins, sidecars and the default report name
        _refuse_inputs(named, _inputs(args))
        with _one_blas_thread():
            return args.func(args)
    except DepconError as exc:
        print(f"depcon {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"depcon {args.command}: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_FILE_NOT_FOUND
    except MemoryError as exc:  # NumPy's names the allocation's size; Python's is blank
        detail = f" ({exc})" if str(exc) else ""
        print(f"depcon {args.command}: out of memory{detail}", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY
    except OSError as exc:
        print(f"depcon {args.command}: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
