"""The workload process: set up once, then issue ops back to back.

``run.py`` starts it as::

    python3 perfbench/worker.py WORKLOAD --seed N --seconds S --trace 0|1 \\
        --spawned-at T [--setup-only]

where T is ``time.monotonic()`` just before the spawn. Set-up is everything
from the spawn to the first timed op: interpreter start, imports, config
parsing and ``harness.build_problem``. With ``--setup-only`` the process
stops there. Otherwise one client issues ops back to back for S seconds (at
least one op) and the process prints one JSON line with the ops, their
checks and the metrics.

With ``--trace 1`` every op index runs twice, untraced and traced, in
alternating order, so the digests of the two can be compared and the tracing
overhead is measured on neighbouring ops.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "perfbench", ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ops  # noqa: E402
import pushsim  # noqa: E402
from run import pin  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_op(prep: ops.Prepared, seed: int, index: int, outdir: Path,
           tracer: tracing.Tracer | None = None) -> dict:
    """Issue, time and check one op. A failed op is recorded, not raised."""
    label, call = ops.op_call(prep, seed, index, outdir)
    rec = {"index": index, "op": label, "traced": tracer is not None}
    try:
        if tracer is not None:
            tracer.op = index
            tracer.install()
        start = time.perf_counter()
        try:
            output = call()
        finally:
            rec["seconds"] = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        rec["sha256"], rec["bytes_written"] = ops.check(
            prep, output, outdir)
    except Exception:  # the run goes on; the op counts as failed
        rec["error"] = traceback.format_exc()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return rec


def measure(prep: ops.Prepared, seed: int, seconds: float,
            trace: bool, outdir: Path,
            spans_path: Path | None = None) -> dict:
    """Issue ops for `seconds` (at least one op); return the run's result.

    The result has the contract's keys (correct, attempted, failed,
    metrics) plus the op records. Metric values are (value, unit) pairs.
    """
    tracer = tracing.Tracer() if trace else None
    cpus = sorted(os.sched_getaffinity(0))
    recs = []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        # Ops take turns on the CPUs: on a shared host each CPU slows down
        # on its own, for longer than a run, and a run's op times should not
        # hang on which CPU the process happened to sit on.
        pin({cpus[index % len(cpus)]})
        if trace:
            order = (None, tracer) if index % 2 == 0 else (tracer, None)
            recs += [run_op(prep, seed, index, outdir, t) for t in order]
        else:
            recs.append(run_op(prep, seed, index, outdir))
        index += 1
    failed = sum("error" in r for r in recs)
    correct = failed == 0
    if trace:
        untraced = {r["index"]: r for r in recs if not r["traced"]}
        traced = [r for r in recs if r["traced"]]
        # A failed op has no digest; it already makes the run incorrect.
        correct = correct and all(
            r["sha256"] == untraced[r["index"]]["sha256"] for r in traced)
        metrics = tracing.layer_metrics(
            tracer, [r["seconds"] for r in traced],
            [r.get("bytes_written", 0) for r in traced])
        metrics["trace.overhead_ratio"] = (statistics.median(
            r["seconds"] / untraced[r["index"]]["seconds"] for r in traced),
            "ratio")
        if spans_path is not None:
            tracer.write_csv(spans_path)
    else:
        metrics = _end_to_end_metrics(prep.workload, recs)
    return {"correct": correct, "attempted": len(recs), "failed": failed,
            "metrics": metrics, "ops": recs}


def _end_to_end_metrics(workload: workloads.Workload, recs: list) -> dict:
    done = sum("error" not in r for r in recs)
    seconds = [r["seconds"] for r in recs]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_slots_per_s": (workload.run_slots * done / sum(seconds), "1/s"),
        "op_s_p50": (statistics.median(seconds), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }


def _blas() -> tuple[str, int | None]:
    """OpenBLAS version numpy was built with, and its live thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:   # not Linux: thread count unknown
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:   # e.g. a mapping whose file is gone: "(deleted)"
            continue
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
    return f"{blas.get('name')} {blas.get('version')}", threads


def environment(workload: workloads.Workload, seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        if git.returncode == 0:
            commit = git.stdout.strip()
    blas, threads = _blas()
    return {
        "pushsim": pushsim.__version__, "commit": commit,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads": threads,
        "nproc": os.cpu_count(), "workload": workload.name,
        "config": workload.config, "seed": seed, "runs_per_op": workload.runs,
        "slots_per_run": workload.horizon,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    prep = ops.prepare(ROOT, workload)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    workdir = ROOT / workloads.WORK_DIR
    workdir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}"
    # A directory of its own, so that runs sharing a checkout (even from
    # different process-id namespaces) never write into each other's ops.
    scratch = Path(tempfile.mkdtemp(prefix=f"ops-{tag}-", dir=workdir))
    try:
        result = measure(prep, args.seed, args.seconds, bool(args.trace),
                         scratch / "op",
                         workdir / f"spans-{tag}.csv" if args.trace
                         else None)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["setup_s"] = setup_s
    result["env"] = environment(workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
