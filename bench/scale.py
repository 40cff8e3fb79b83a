"""Scale grid, quick tier: the feature build, the aggregate statistic,
`gram_matrix`, `depcon gram` and `depcon kpca` at large n.

    python bench/scale.py --label change
    python bench/scale.py --label pr --src ../parent/src --src src   # parent, then change
    python bench/scale.py --label kpca --layer cli_kpca   # only that layer's cells
    python bench/scale.py --cell gram_matrix 200 5   # one cell, its record on stdout

Each cell runs in a fresh process with one BLAS thread and one library
thread, and measures only itself: wall time (``perf_counter``), CPU time
(``process_time``) and the process's peak RSS (``getrusage``), besides the
RSS it had before the timed call. The grid runs ``REPEATS`` rounds. Given
two trees (``--src`` twice, the parent first), each round runs every cell on
both trees back to back, and the tree that goes first swaps each round, so a
slow spell of the host hits both trees alike; each cell then records its
per-round change/parent ratios of CPU time and of wall time, their medians
and in how many rounds the change was lower. The result keeps every run and
each tree's per-cell medians. The data are
``default_rng(7).standard_normal((n, m))`` with column 1 plus sin(column 0).
A `depcon gram` cell first writes that data to a CSV file in a temporary
directory, then times the command, which writes the Gram CSV (about 1.2 GB
at n = 8,000) and its twin there; the directory is deleted. A `depcon kpca`
cell has a `depcon gram` process of the same tree write those files first,
then times `kpca -d 2` on the Gram CSV. The result goes to
``BENCH_scale_<label>.json`` in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Rounds of the grid. One timing per cell could not resolve CPU differences
#: below about 40% on a shared 2-vCPU VM, nor could medians of two trees run
#: one after the other (31% apart on the same code); alternated rounds can.
REPEATS = 5
TREES = ("parent", "change")
LAYERS = ("contribution_features", "aggregate_statistic", "gram_matrix", "cli_gram", "cli_kpca")
GRID = [(n, m) for n in (2000, 8000) for m in (5, 10, 20)]
CELLS = (
    [(layer, n, m) for layer in LAYERS[:2] for n, m in GRID + [(16000, 10)]]
    + [("gram_matrix", n, m) for n, m in GRID]
    + [(layer, n, 10) for layer in LAYERS[3:] for n in (2000, 8000)]
)
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Run keys that ``_medians`` and ``_ratios`` summarise.
KEYS = ("cpu_s", "wall_s")


def data(n, m):
    import numpy as np

    x = np.random.default_rng(7).standard_normal((n, m))
    x[:, 1] += np.sin(x[:, 0])
    return x


def run_cell(layer, n, m):
    """Time one layer in this process; print its JSON record."""
    import resource
    import time

    import numpy as np

    import depcon.cli
    from depcon.inference import aggregate_statistic
    from depcon.kernel import contribution_features, gram_matrix

    x = data(n, m)
    workdir = tempfile.TemporaryDirectory(prefix="depcon-scale-")
    source, output = Path(workdir.name) / "data.csv", Path(workdir.name) / "gram.csv"
    coords = Path(workdir.name) / "coords.csv"
    call = {
        "contribution_features": lambda: contribution_features(x),
        "aggregate_statistic": lambda: aggregate_statistic(x),
        "gram_matrix": lambda: gram_matrix(x),
        "cli_gram": lambda: depcon.cli.main(["gram", str(source), "-o", str(output)]),
        "cli_kpca": lambda: depcon.cli.main(["kpca", str(output), "-o", str(coords), "-d", "2"]),
    }[layer]
    if layer.startswith("cli_"):
        # each value's shortest round-trip repr, as depcon writes a dataset CSV
        with open(source, "w") as handle:
            handle.writelines(",".join(map(repr, row)) + "\n" for row in x.tolist())
    if layer == "cli_kpca":
        # in its own process, so this one's peak RSS is kpca's alone
        subprocess.run([sys.executable, "-m", "depcon", "gram", str(source), "-o", str(output)],
                       check=True)

    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall, cpu = time.perf_counter(), time.process_time()
    result = call()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {
        "layer": layer,
        "n": n,
        "m": m,
        "wall_s": round(wall, 3),
        "cpu_s": round(cpu, 3),
        "peak_rss_mb": round(peak / 1024, 1),
        "rss_before_mb": round(before / 1024, 1),
        "numpy": np.__version__,
    }
    if layer.startswith("cli_"):
        assert result == 0, f"depcon {layer[4:]} exited {result}"
    if layer == "cli_gram":
        record["file_bytes"] = output.stat().st_size
    workdir.cleanup()
    print(json.dumps(record))


def _medians(runs):
    return {key: round(statistics.median(run[key] for run in runs), 4)
            for key in (*KEYS, "peak_rss_mb")}


def _ratios(parent, change, key):
    """Per-round change/parent ratios of ``key``, their median, and how many are below 1."""
    ratios = [round(c[key] / p[key], 4) for p, c in zip(parent, change)]
    return {
        f"{key}_ratios": ratios,
        f"{key}_ratio_median": round(statistics.median(ratios), 4),
        f"{key}_rounds_lower": f"{sum(r < 1 for r in ratios)} of {len(ratios)}",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="names BENCH_scale_<label>.json")
    parser.add_argument("--src", action="append",
                        help="a depcon tree to measure (default: this checkout's); "
                             "give it twice, the parent first, to compare two trees")
    parser.add_argument("--sha", action="append",
                        help="each --src's commit, in the same order (default: its git HEAD)")
    parser.add_argument("--layer", action="append", choices=LAYERS,
                        help="run only this layer's cells; give it once per layer "
                             "(default: every layer)")
    parser.add_argument("--cell", nargs=3, metavar=("LAYER", "N", "M"),
                        help=f"time one cell in this process; LAYER is one of {', '.join(LAYERS)}")
    args = parser.parse_args(argv)
    if args.cell:
        layer, n, m = args.cell
        run_cell(layer, int(n), int(m))
        return 0
    if not args.label:
        parser.error("--label is required")
    srcs = [Path(src).resolve() for src in args.src or [ROOT / "src"]]
    if len(srcs) > 2 or len(args.sha or srcs) != len(srcs):
        parser.error("give --src at most twice, and --sha once per --src or not at all")

    names = TREES if len(srcs) == 2 else (args.label,)
    trees = []
    for name, src, sha in zip(names, srcs, args.sha or [None] * len(srcs)):
        sha = sha or subprocess.run(
            ["git", "-C", str(src), "rev-parse", "HEAD"], capture_output=True, text=True
        ).stdout.strip() or None
        env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(src))
        trees.append({"name": name, "sha": sha, "env": env})
    cells = [cell for cell in CELLS if not args.layer or cell[0] in args.layer]
    runs = []
    for repeat in range(REPEATS):
        # the tree that goes first swaps each round
        order = trees[repeat % len(trees):] + trees[:repeat % len(trees)]
        for layer, n, m in cells:
            for tree in order:
                out = subprocess.run(
                    [sys.executable, __file__, "--cell", layer, str(n), str(m)],
                    env=tree["env"], capture_output=True, text=True, check=True,
                ).stdout
                runs.append({**json.loads(out.splitlines()[-1]), "repeat": repeat,
                             "tree": tree["name"]})
                print(json.dumps(runs[-1]), flush=True)
    records = []
    for cell in cells:
        own = {name: [run for run in runs
                      if (run["layer"], run["n"], run["m"]) == cell and run["tree"] == name]
               for name in names}
        record = dict(zip(("layer", "n", "m"), cell))
        record.update((name, _medians(own[name])) for name in names)
        if len(names) == 2:
            for key in KEYS:
                record.update(_ratios(own["parent"], own["change"], key))
        records.append(record)
    result = {
        "what": __doc__.split("\n\n")[2].replace("\n", " ").strip(),
        "label": args.label,
        "trees": [{"name": tree["name"], "sha": tree["sha"]} for tree in trees],
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": REPEATS,
        "cells": records,
        "runs": runs,
    }
    Path(f"BENCH_scale_{args.label}.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
