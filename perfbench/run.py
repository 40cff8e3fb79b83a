"""depcon benchmark runner.

    python3 perfbench/run.py --workload cluster-select --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Runs one workload (or ``all`` three) for about ``--seconds`` seconds, one
pass per fresh worker process, and prints a report followed by one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end`` list; with
``--trace 1`` they are its ``per_layer`` list, from traced passes each
paired with an untraced pass on the same inputs.

depcon is imported from ``src/`` of the checkout this file sits in.
Scratch files go to ``.perfbench_work/`` and full results, spans included,
to ``.perfbench_out/``, both in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cluster-select", "tests-large", "cli-pipeline")
SETUP_PROBES = 6
#: Median ``worker.calibrate`` time on the reference machine, a 2-vCPU
#: virtual machine running Python 3.11 and NumPy 2.4 with one OpenBLAS thread.
REFERENCE_CALIBRATION_S = 0.023
PASS_TIMEOUT_S = 150
#: Pinned for every worker: BLAS single-threaded, library threads 1 unless a
#: workload passes its own count (tests-large uses 2).
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "DEPCON_THREADS": "1",
}


def pass_seed(seed, index):
    """Seed of pass ``index``'s inputs; a function of the workload seed only."""
    digest = hashlib.sha256(f"depcon-bench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def worker_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


class Runner:
    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.env = worker_env()
        self.spawned = 0
        self.errors = []

    def spawn(self, index, traced=False, setup_only=False):
        """Run one worker; returns its result dict, or None when it crashed."""
        workdir = ROOT / ".perfbench_work" / f"{os.getpid()}-{self.spawned}"
        self.spawned += 1
        t0 = time.perf_counter()
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload,
            "--seed", str(pass_seed(self.seed, index)),
            "--workdir", str(workdir),
            "--trace", "1" if traced else "0",
            "--t0", repr(t0),
        ]
        if setup_only:
            cmd.append("--setup-only")
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            proc = None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc is None:
            self.errors.append(f"pass {index}: timed out after {PASS_TIMEOUT_S} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            try:
                return json.loads(lines[-1])
            except ValueError:
                pass
        self.errors.append(f"pass {index}: exit {proc.returncode}: {proc.stderr[-2000:]}")
        return None

    def run(self):
        """Set-up probes, then passes until the time is spent: (probes, plain, traced)."""
        probes, plain, traced = [], [], []
        if not self.trace:
            probes = [self.spawn(0, setup_only=True) for _ in range(SETUP_PROBES)]
        deadline = time.perf_counter() + self.seconds
        index = 0
        while not plain or time.perf_counter() < deadline:
            plain.append(self.spawn(index))
            if self.trace:
                traced.append(self.spawn(index, traced=True))
            index += 1
        return probes, plain, traced


def _median(values):
    return statistics.median(values) if values else None


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def count_ops(probes, plain, traced):
    """(attempted, failed, error messages) over every operation of the run.

    A worker that crashed counts as one failed operation; a set-up probe
    counts only when it failed, since its outputs are not checked.
    """
    attempted = failed = 0
    errors = []
    for result in probes:
        if result is None or "setup_cpu_s" not in result:
            attempted += 1
            failed += 1
    for result in plain + traced:
        if result is None:
            attempted += 1
            failed += 1
            continue
        for name, record in result["ops"].items():
            attempted += 1
            if not record["ok"]:
                failed += 1
                errors.append(f"{name}: {record['error']}")
    return attempted, failed, errors


def timed(results):
    return [r for r in results if r is not None and "run_s" in r]


def samples(probes, plain):
    """Per-worker values: the end-to-end metrics first, then the raw times beside them.

    CPU times are rescaled to the reference speed by the mean of every
    calibration the run took, so a host that runs everything slower for
    minutes at a time does not move them.
    """
    setups = [r for r in probes + plain if r is not None and "setup_cpu_s" in r]
    passes = timed(plain)
    calibration = [r["calibration_s"] for r in setups] + [p["calibration_after_s"] for p in passes]
    speed = REFERENCE_CALIBRATION_S / statistics.fmean(calibration) if calibration else None
    return {
        "run_ref_s": [p["run_cpu_s"] * speed for p in passes],
        "setup_s": [r["setup_cpu_s"] * speed for r in setups],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "run_cpu_s": [p["run_cpu_s"] for p in passes],
        "run_s": [p["run_s"] for p in passes],
        "setup_cpu_s": [r["setup_cpu_s"] for r in setups],
        "setup_wall_s": [r["setup_wall_s"] for r in setups],
        "calibration_s": calibration,
    }


def op_seconds(results, names):
    return [
        r["ops"][name]["seconds"]
        for r in results
        for name in names
        if name in r["ops"] and r["ops"][name]["ok"]
    ]


def workload_extras(plain):
    """Figures that apply to one workload only: ARI, per-call test times."""
    extras = {}
    aris = [p["extras"]["ari"] for p in plain if "ari" in p.get("extras", {})]
    if aris:
        extras["ari"] = statistics.fmean(aris)
    indep = op_seconds(plain, ("indep_a", "indep_b"))
    if indep:
        extras["indep_s"] = _median(indep)
    two_sample = op_seconds(plain, ("two_sample",))
    if two_sample:
        extras["two_sample_s"] = _median(two_sample)
    return extras


def per_layer(plain, traced):
    """Medians over traced passes; test times and ARI from the untraced ones."""
    layered = [t for t in traced if t is not None and "layers" in t]
    if not layered:
        return {}
    values = {
        name: _median([t["layers"][name] for t in layered]) for name in layered[0]["layers"]
    }
    for key in ("cli.bytes_read", "cli.bytes_written"):
        values[key] = _median([t["extras"].get(key, 0) for t in layered])
    extras = workload_extras(timed(plain))
    for key in ("ari", "indep_s", "two_sample_s"):
        values[key] = extras.get(key, 0.0)
    pairs = [(p, t) for p, t in zip(plain, traced) if p and t and "run_s" in p and "run_s" in t]
    values["trace.overhead"] = _median([t["run_cpu_s"] / p["run_cpu_s"] for p, t in pairs])
    values["trace.run_cpu_s"] = _median([t["run_cpu_s"] for _, t in pairs])
    values["trace.untraced_run_cpu_s"] = _median([p["run_cpu_s"] for p, _ in pairs])
    return values


def run_record(runner, environment):
    return {
        "workload": runner.workload,
        "seed": runner.seed,
        "seconds": runner.seconds,
        "trace": runner.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {key: runner.env.get(key) for key in THREAD_ENV},
        "depcon_backend_env": runner.env.get("DEPCON_BACKEND"),
        **(environment or {}),
    }


def run_workload(name, seed, seconds, trace, spec):
    runner = Runner(name, seed, seconds, trace)
    probes, plain, traced = runner.run()
    attempted, failed, op_errors = count_ops(probes, plain, traced)
    environment = next((r["environment"] for r in probes + plain if r and "environment" in r), None)
    record = run_record(runner, environment)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]

    print(f"# depcon benchmark: workload {name}, seed {seed}, {len(plain)} passes, "
          f"trace {'on' if trace else 'off'}")
    if trace:
        values = per_layer(plain, traced)
        for key in ("trace.run_cpu_s", "trace.untraced_run_cpu_s"):
            print(f"{key:32s} {values.get(key, float('nan')):.6g} s")
    else:
        per_pass = samples(probes, plain)
        values = {key: _median(v) for key, v in per_pass.items()}
        for key, v in per_pass.items():
            if v:
                q1, q3 = _quartiles(v)
                print(f"{key:32s} {_median(v):.6g} {units.get(key, 's')}  "
                      f"(median of {len(v)}; quartiles {q1:.6g}, {q3:.6g})")
        for key, value in workload_extras(timed(plain)).items():
            print(f"{key:32s} {value:.6g} {units[key]}")
    print(f"{'fail_frac':32s} {failed / attempted if attempted else 1.0:.6g} ratio  "
          f"({failed} of {attempted} operations)")
    if trace:
        for key in wanted:
            value = values.get(key)
            print(f"{key:32s} {'n/a' if value is None else format(value, '.6g')} {units[key]}")
    for message in (runner.errors + op_errors)[:20]:
        print(f"# error: {message}")
    print("# record " + json.dumps(record, sort_keys=True))

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    spans = [(i, t.pop("spans")) for i, t in enumerate(traced) if t and "spans" in t]
    with open(out_dir / f"{stem}.spans.jsonl", "w") as handle:
        for index, pass_spans in spans:
            for span in pass_spans:
                handle.write(json.dumps({"pass": index, **span}) + "\n")
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"record": record, "values": values, "passes": plain, "traced": traced,
                    "probes": probes, "errors": runner.errors + op_errors}, indent=1)
    )

    missing = [key for key in wanted if values.get(key) is None]
    if missing:
        print(f"no measurement for {', '.join(missing)}", file=sys.stderr)
        return None
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "depcon" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no depcon sources under {ROOT / 'src'}; run from a depcon checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, seconds, args.trace, spec)
        if result is None:
            return 1
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
