"""Scale grid, quick tier: the feature build, the aggregate statistic,
`gram_matrix` and `depcon gram` at large n.

    python bench/scale.py --label change
    python bench/scale.py --label parent --src ../parent/src --sha <sha>
    python bench/scale.py --cell gram_matrix 200 5   # one cell, its record on stdout

Each cell runs in a fresh process with one BLAS thread and one library
thread, and measures only itself: wall time (``perf_counter``), CPU time
(``process_time``) and the process's peak RSS (``getrusage``), besides the
RSS it had before the timed call. The grid runs ``REPEATS`` times, one
whole round after another, so a slow spell of the host hits every cell
alike; the result keeps every run and each cell's medians. The data are
``default_rng(7).standard_normal((n, m))`` with column 1 plus sin(column 0).
A `depcon gram` cell first writes that data to a CSV file in a temporary
directory, then times the command, which writes the Gram CSV (about 1.2 GB
at n = 8,000) there; the directory is deleted. The result goes to
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
#: below about 40% on a shared 2-vCPU VM; the median of interleaved rounds can.
REPEATS = 3
LAYERS = ("contribution_features", "aggregate_statistic", "gram_matrix", "cli_gram")
GRID = [(n, m) for n in (2000, 8000) for m in (5, 10, 20)]
CELLS = (
    [(layer, n, m) for layer in LAYERS[:2] for n, m in GRID + [(16000, 10)]]
    + [("gram_matrix", n, m) for n, m in GRID]
    + [("cli_gram", n, 10) for n in (2000, 8000)]
)
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "DEPCON_THREADS": "1",
}


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
    call = {
        "contribution_features": lambda: contribution_features(x),
        "aggregate_statistic": lambda: aggregate_statistic(x),
        "gram_matrix": lambda: gram_matrix(x),
        "cli_gram": lambda: depcon.cli.main(["gram", str(source), "-o", str(output)]),
    }[layer]
    if layer == "cli_gram":
        depcon.cli._write_matrix_csv(source, x, {})

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
    if layer == "cli_gram":
        assert result == 0, f"depcon gram exited {result}"
        record["file_bytes"] = output.stat().st_size
    workdir.cleanup()
    print(json.dumps(record))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="names BENCH_scale_<label>.json")
    parser.add_argument("--src", default=str(ROOT / "src"), help="the depcon tree to measure")
    parser.add_argument("--sha", default=None, help="its commit (default: git HEAD of --src)")
    parser.add_argument("--cell", nargs=3, metavar=("LAYER", "N", "M"),
                        help=f"time one cell in this process; LAYER is one of {', '.join(LAYERS)}")
    args = parser.parse_args(argv)
    if args.cell:
        layer, n, m = args.cell
        run_cell(layer, int(n), int(m))
        return 0
    if not args.label:
        parser.error("--label is required")

    src = Path(args.src).resolve()
    sha = args.sha or subprocess.run(
        ["git", "-C", str(src), "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip() or None
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(src))
    runs = []
    for repeat in range(REPEATS):
        for layer, n, m in CELLS:
            out = subprocess.run(
                [sys.executable, __file__, "--cell", layer, str(n), str(m)],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            runs.append({**json.loads(out.splitlines()[-1]), "repeat": repeat})
            print(json.dumps(runs[-1]), flush=True)
    cells = []
    for cell in CELLS:
        own = [run for run in runs if (run["layer"], run["n"], run["m"]) == cell]
        medians = {key: statistics.median(run[key] for run in own)
                   for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        cells.append(dict(zip(("layer", "n", "m"), cell), **medians))
    result = {
        "what": __doc__.split("\n\n")[2].replace("\n", " ").strip(),
        "label": args.label,
        "sha": sha,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": REPEATS,
        "cells": cells,
        "runs": runs,
    }
    Path(f"BENCH_scale_{args.label}.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
