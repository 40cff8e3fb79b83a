"""One benchmark pass in a fresh process, so peak RSS is this pass's own.

Run by ``run.py``; prints one JSON object as its last stdout line: the
set-up's CPU time since the process started and its wall time since
``--t0`` (the runner's clock when it started this process), the
calibrations taken after set-up and after the timed region, the timed
region's CPU and wall time, peak RSS before the checks, each operation's
wall time and check result, and, when traced, the pass's spans and
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_since_start():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def calibrate(np, rounds=7):
    """Mean CPU time of one round of fixed interpreter, elementwise and BLAS work.

    The runner divides by it to express CPU times at a reference speed, so
    that a host that runs every program slower for a while moves the
    calibration and the workload together. A mean, not a median: the host's
    speed flickers within a second, and a workload's CPU time is the mean
    over those flickers.
    """
    rng = np.random.default_rng(20240612)
    x = rng.standard_normal((400, 8))
    g = rng.standard_normal((300, 300))
    h = np.ascontiguousarray(g[:, :64])
    cells = [repr(v) for v in x.ravel().tolist()] * 8
    # preallocated, so the rounds' cost does not depend on the allocator's state
    diff = np.empty((400, 400, 8))
    prod = np.empty((300, 64))

    def one_round():
        start = time.process_time()
        np.subtract(x[:, None, :], x[None, :, :], out=diff)
        np.abs(diff, out=diff).sum()
        np.matmul(g, h, out=prod)
        sum(float(c) for c in cells)
        return time.process_time() - start

    one_round()  # first touch of the buffers and lazy initialisation
    return statistics.fmean(one_round() for _ in range(rounds))


def _environment(np, depcon):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "depcon_backend": depcon.BACKEND_NAME,
        "depcon_file": depcon.__file__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np

    import depcon
    import depcon.cli

    if not Path(depcon.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"depcon imported from {depcon.__file__}, not from this checkout", file=sys.stderr)
        return 3

    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, Ops, PassAborted

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]()
    ops = Ops(tracer)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    result = {}
    try:
        inputs = workload.setup(args.seed, ops, workdir)
        result["setup_cpu_s"] = _cpu_since_start()
        result["setup_wall_s"] = time.perf_counter() - args.t0
        result["calibration_s"] = calibrate(np)
        result["environment"] = _environment(np, depcon)
        if not args.setup_only:
            cpu_start = time.process_time()
            run_start = time.perf_counter()
            outputs = workload.run(inputs, ops)
            run_end = time.perf_counter()
            result["run_cpu_s"] = time.process_time() - cpu_start
            result["run_s"] = run_end - run_start
            result["calibration_after_s"] = calibrate(np)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                tracer.active = False
            try:
                result["extras"] = workload.check(inputs, outputs, ops)
            except Exception as exc:  # a crashed check fails every operation it covers
                for name in workload.plan:
                    ops.fail(name, f"check crashed: {exc!r}")
                result["extras"] = {}
            if tracer is not None:
                result["layers"] = layer_metrics(tracer.spans, run_start, run_end)
                result["spans"] = tracer.spans
    except PassAborted:
        pass
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["ops"] = ops.records
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
