"""One op of a workload: issue it, check its output, digest it.

An op is one call into a public entry point of pushsim: either
``harness.run_experiment`` (what ``pushsim rasgp`` runs) or
``audit.verify_run`` on one run index (what ``pushsim verify`` runs per
run). Each op's ``master_seed`` or run index is derived from the workload
seed and the op's position, so the same seed always issues the same ops and
the program only ever sees the generated configs.

pushsim is imported from the checkout's ``src/`` by ``worker.py`` before
this module is used.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from pushsim import audit, harness
from pushsim.rng import Role, stream, uniform_box

from workloads import Workload

# `pushsim verify` draws each run's x0 uniformly from this box.
VERIFY_X0_HALF_WIDTH = 3.0

_MASTER_SEED_LIMIT = 1 << 63
_RUN_INDEX_LIMIT = 1 << 40


class OpCheckError(Exception):
    """An op returned output that fails the benchmark's check."""


def op_key(workload: str, seed: int, index: int, limit: int) -> int:
    """Deterministic master seed or run index for op `index` of a run."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % limit


@dataclass
class Prepared:
    """What set-up builds once per process: the parsed config and problem."""

    workload: Workload
    config: harness.ExperimentConfig
    problem: harness.ProblemInstance


def prepare(root: Path, workload: Workload) -> Prepared:
    """Parse the workload's config and build its problem instance."""
    config = harness.ExperimentConfig.from_file(
        root / "configs" / workload.config)
    config = replace(config, runs=workload.runs, horizon=workload.horizon)
    return Prepared(workload, config, harness.build_problem(config))


def op_call(prep: Prepared, seed: int, index: int, outdir: Path):
    """Return (op label, zero-argument callable issuing op `index`).

    The callable looks the entry point up on its module at call time, so a
    tracer installed after this returns still sees the call.
    """
    w, config = prep.workload, prep.config
    if w.audit:
        run = op_key(w.name, seed, index, _RUN_INDEX_LIMIT)
        topo = prep.problem.topology
        x0 = uniform_box(
            stream(config.master_seed, run, Role.INIT, 0).random(
                (topo.n, config.objective.dim)),
            VERIFY_X0_HALF_WIDTH)
        return f"run={run}", lambda: audit.verify_run(
            topo, config.faults, x0, config.horizon, config.master_seed,
            run=run)
    seed_i = op_key(w.name, seed, index, _MASTER_SEED_LIMIT)
    op_config = replace(config, master_seed=seed_i)
    return f"master_seed={seed_i}", lambda: harness.run_experiment(
        op_config, outdir)


def check(prep: Prepared, output, outdir: Path) -> tuple[str, int]:
    """Check one op's output; return (SHA-256 of its raw series, bytes
    written). Raises OpCheckError when the output is wrong."""
    if prep.workload.audit:
        if not output.ok:
            raise OpCheckError("audit identities failed: "
                               + "; ".join(output.lines()))
        text = "".join(f"{c.name} {c.max_residual.hex()} "
                       f"{c.first_bad_slot}\n" for c in output.checks)
        return hashlib.sha256(text.encode()).hexdigest(), 0
    if not (np.all(np.isfinite(output.e_dist_raw))
            and np.all(np.isfinite(output.e_c_raw))):
        raise OpCheckError("non-finite raw error series")
    e_dist = output.series.e_dist
    if not e_dist[-1] < e_dist[0]:
        raise OpCheckError(f"E_dist did not decay: first window "
                           f"{e_dist[0]:.3e}, last {e_dist[-1]:.3e}")
    manifest = json.loads((outdir / harness.MANIFEST_NAME).read_text())
    raw_files = manifest.get("raw_files", [])
    if manifest.get("status") != "complete" \
            or len(raw_files) != prep.workload.runs:
        raise OpCheckError(f"manifest status {manifest.get('status')!r} "
                           f"with {len(raw_files)} raw files")
    digest = hashlib.sha256()
    for name in raw_files:
        digest.update((outdir / name).read_bytes())
    written = sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())
    return digest.hexdigest(), written
