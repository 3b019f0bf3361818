"""The benchmark's workloads: which config, and how big one op is.

Why each was chosen is in BENCHMARK.json and README.md.

Standard library only, so ``run.py`` can read it without importing pushsim.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Where ops write their artifacts and the benchmark writes its records,
# relative to the checkout root.
WORK_DIR = Path(".bench_build") / "perfbench"


@dataclass(frozen=True)
class Workload:
    name: str
    config: str       # file under configs/
    runs: int         # Monte Carlo runs per op
    horizon: int      # slots per run
    audit: bool       # op is audit.verify_run, else harness.run_experiment

    @property
    def run_slots(self) -> int:
        """Run-slots one op simulates (and, for the audit, cross-checks)."""
        return self.runs * self.horizon


WORKLOADS = {w.name: w for w in (
    Workload(
        "quad_async", "quad_async_cycle10.json", runs=50, horizon=1000,
        audit=False),
    Workload(
        "svm_sync", "svm_sync_cycle50.json", runs=5, horizon=500,
        audit=False),
    Workload(
        "audit_small", "verify_faulty_small.json", runs=1, horizon=500,
        audit=True),
)}
