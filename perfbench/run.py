"""pushsim benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload quad_async --seed 1 --seconds 20 \\
        --trace 0

Runs one workload in its own process (``worker.py``), with one client
issuing ops back to back, and prints every metric with its unit. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The run's full record (environment, every op with its digest and time) is
written to ``.bench_build/perfbench/``.

This file uses the standard library only; pushsim and numpy are imported
by the worker processes, so set-up time is measured in fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The benchmark's own modules, also where the interpreter was told not to
# put the script's directory on the path (PYTHONSAFEPATH).
if str(ROOT / "perfbench") not in sys.path:
    sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORK_DIR, WORKLOADS  # noqa: E402

# Set-up is measured in this many fresh processes (the middle one goes on
# to run the ops) and reported as the median.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
WORKER_SLACK_S = 100


class BenchmarkError(Exception):
    pass


def pin(cpus) -> None:
    """Restrict this process (and the children it starts) to `cpus`.

    Where the host refuses (a sandbox without the call, or a CPU set that
    changed under the process), the process stays where it is: pinning only
    steadies timings, it does not change what is measured.
    """
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def spawn_worker(workload: str, seed: int, seconds: float, trace: int,
                 setup_only: bool, timeout: float) -> dict:
    """Run worker.py to completion and return its JSON result line."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        # The worker's traceback, if any, is above on standard error.
        stage = "set-up probe" if setup_only else "workload process"
        raise BenchmarkError(f"{stage} {' '.join(cmd[1:])} exited with "
                             f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("worker printed no result")
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run the workload; with trace 0 also sample set-up in fresh processes,
    half of them before the workload process and half after it."""
    probes = 0 if trace else (SETUP_SAMPLES - 1) // 2
    cpus = sorted(os.sched_getaffinity(0))

    def setup_probes() -> list[float]:
        samples = []
        for i in range(probes):
            # A child starts on the CPUs its parent may use; spread the
            # probes over the CPUs, as the worker spreads its ops.
            pin({cpus[i % len(cpus)]})
            samples.append(spawn_worker(workload, seed, seconds, trace, True,
                                        SETUP_TIMEOUT_S)["setup_s"])
        pin(cpus)
        return samples

    setup = setup_probes()
    result = spawn_worker(workload, seed, seconds, trace, False,
                          seconds + WORKER_SLACK_S)
    setup += [result["setup_s"]] + setup_probes()
    result["setup_samples"] = setup
    if not trace:
        result["metrics"]["setup_s"] = (statistics.median(setup), "s")
    return result


def report(result: dict, workload: str, seed: int, trace: int) -> None:
    env = result["env"]
    print(f"pushsim benchmark: workload={workload} seed={seed} "
          f"trace={trace} ops={result['attempted']} "
          f"runs/op={env['runs_per_op']} slots/run={env['slots_per_run']}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for op in result["ops"]:
        status = "FAILED" if "error" in op else op["sha256"]
        print(f"op {op['index']} {op['op']} traced={int(op['traced'])} "
              f"{op['seconds']:.4f} s {status}")
        if "error" in op:
            print(op["error"], file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    if not trace:
        print("setup_s samples: "
              + " ".join(f"{v:.4f}" for v in result["setup_samples"]))
    share = result["failed"] / result["attempted"]
    print(f"failed_op_share {share:.6g} ratio "
          f"({result['failed']}/{result['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pushsim benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    needed = [ROOT / "src" / "pushsim" / "__init__.py",
              ROOT / "configs" / WORKLOADS[args.workload].config]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a pushsim checkout, missing {missing}",
              file=sys.stderr)
        return 2
    try:
        result = collect(args.workload, args.seed, args.seconds, args.trace)
    except (BenchmarkError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    (ROOT / WORK_DIR).mkdir(parents=True, exist_ok=True)
    record = ROOT / WORK_DIR / (f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json")
    record.write_text(json.dumps(result, indent=1) + "\n")
    report(result, args.workload, args.seed, args.trace)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
