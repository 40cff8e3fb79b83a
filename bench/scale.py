"""Scale grid, quick tier: `gram_matrix` and `depcon gram` at large n.

    python bench/scale.py --label change
    python bench/scale.py --label parent --src ../parent/src --sha <sha>

Each cell runs in a fresh process with one BLAS thread and one library
thread, and measures only itself: wall time (``perf_counter``), CPU time
(``process_time``) and the process's peak RSS (``getrusage``), besides the
RSS it had before the timed call. The data are
``default_rng(7).standard_normal((n, m))`` with column 1 plus sin(column 0).
The `depcon gram` cells read that data from a CSV file and write the Gram
CSV (about 1.2 GB at n = 8,000) to a temporary directory, which is deleted.
The result goes to ``BENCH_scale_<label>.json`` in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CELLS = [(layer, n, 10) for n in (2000, 8000) for layer in ("gram_matrix", "cli_gram")]
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


def run_cell(layer, n, m, workdir):
    """Time one layer in this process; print its JSON record."""
    import resource
    import time

    import numpy as np

    import depcon.cli
    from depcon.kernel import gram_matrix

    if layer == "gram_matrix":
        x = data(n, m)

        def call():
            gram_matrix(x)
    else:
        source, output = Path(workdir) / f"data_{n}_{m}.csv", Path(workdir) / "gram.csv"

        def call():
            assert depcon.cli.main(["gram", str(source), "-o", str(output)]) == 0

    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall, cpu = time.perf_counter(), time.process_time()
    call()
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
        record["file_bytes"] = output.stat().st_size
    print(json.dumps(record))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="names BENCH_scale_<label>.json")
    parser.add_argument("--src", default=str(ROOT / "src"), help="the depcon tree to measure")
    parser.add_argument("--sha", default=None, help="its commit (default: git HEAD of --src)")
    parser.add_argument("--cell", nargs=3, metavar=("LAYER", "N", "M"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cell:
        layer, n, m = args.cell
        run_cell(layer, int(n), int(m), args.workdir)
        return 0
    if not args.label:
        parser.error("--label is required")

    src = Path(args.src).resolve()
    sha = args.sha or subprocess.run(
        ["git", "-C", str(src), "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip() or None
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(src))
    cells = []
    with tempfile.TemporaryDirectory(prefix="depcon-scale-") as workdir:
        sys.path.insert(0, str(src))
        from depcon.cli import _write_matrix_csv

        for n, m in sorted({(n, m) for _, n, m in CELLS}):
            _write_matrix_csv(Path(workdir) / f"data_{n}_{m}.csv", data(n, m), {})
        for layer, n, m in CELLS:
            out = subprocess.run(
                [sys.executable, __file__, "--cell", layer, str(n), str(m), "--workdir", workdir],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            cells.append(json.loads(out.splitlines()[-1]))
            (Path(workdir) / "gram.csv").unlink(missing_ok=True)
            print(json.dumps(cells[-1]), flush=True)
    result = {
        "what": __doc__.split("\n\n")[2].replace("\n", " ").strip(),
        "label": args.label,
        "sha": sha,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "cells": cells,
    }
    Path(f"BENCH_scale_{args.label}.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
