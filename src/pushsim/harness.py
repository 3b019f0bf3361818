"""Experiment driver: configs, Monte Carlo orchestration, aggregation, and
every output file format.

A single experiment runs R paired trials: the decentralized optimizer over
the configured network and a centralized noisy-gradient baseline that shares
the dataset and the certified optimum but consumes its own seeded noise
stream. Per-run squared errors are persisted raw and reduced by the
batch/window/median pipeline; every published number is recomputable from
the raw files alone.

Aggregation shape: runs are grouped into batches; within a batch the curves
are averaged pointwise; each batch curve is then averaged over
non-overlapping 100-slot windows; the published value per window is the
median across batches with a 1-standard-deviation band.

File formats live here too: write_csv writes every table pushsim writes,
the CLI's included, save_optimum writes optimum.csv, and _write_manifest
writes manifest.json.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigurationError, PushsimError
from .faultnet import FaultBounds
from .graph import Topology, build_cycle, build_random_strongly_connected
from .objectives import (SVM_PENALTY_NUMERATOR, SVM_POINTS_PER_NODE,
                         NoiseModel, OptimumCertificate, SvmObjective,
                         box_noise_model, generate_quadratic,
                         generate_svm_dataset, solve_reference_optimum)
from .optimizer import StepSizeLedger, run_gradient_push
from .rng import Role, stream

AGGREGATION_WINDOW = 100
RAW_NAME = "run_{:04d}.csv"
MANIFEST_NAME = "manifest.json"


# ---------------------------------------------------------------------------
# Configuration. Each section's dataclass fields are its JSON keys, types and
# defaults; _read and _write are the only code that maps JSON to them.

@dataclass(frozen=True)
class TopologySpec:
    kind: str                 # "cycle" | "random"
    n: int
    bidirectional: bool = True
    edge_prob: float = 0.5

    def __post_init__(self):
        _check_kind(self, "topology")
        if self.n < 1:
            raise ConfigurationError("topology.n: must be >= 1")
        if not 0.0 < self.edge_prob <= 1.0:
            raise ConfigurationError("topology.edge_prob: must be in (0, 1]")

    def build(self, master_seed: int) -> Topology:
        if self.n == 1:
            return Topology.singleton()
        if self.kind == "cycle":
            return build_cycle(self.n, self.bidirectional)
        rng = stream(master_seed, 0, Role.TOPOLOGY, 0)
        return build_random_strongly_connected(self.n, self.edge_prob, rng)

    def as_dict(self) -> dict:
        return _write(self)


@dataclass(frozen=True)
class ObjectiveSpec:
    kind: str                 # "quadratic" | "svm"
    dim: int = 2
    points_per_node: int = SVM_POINTS_PER_NODE
    cost_scale: float = SVM_PENALTY_NUMERATOR

    def __post_init__(self):
        _check_kind(self, "objective")
        if self.dim < 1:
            raise ConfigurationError("objective.dim: must be >= 1")
        if self.points_per_node < 1:
            raise ConfigurationError("objective.points_per_node: must be >= 1")
        if self.points_per_node % 2:
            # half of each node's points carry each label
            raise ConfigurationError("objective.points_per_node: must be even")
        if not 0.0 < self.cost_scale < np.inf:
            raise ConfigurationError(
                "objective.cost_scale: must be positive and finite")


@dataclass(frozen=True)
class RatioSpec:
    sizes: tuple[int, ...]
    checkpoints: tuple[int, ...]

    def __post_init__(self):
        if not self.sizes or any(v < 1 for v in self.sizes):
            raise ConfigurationError("ratio.sizes: positive sizes required")
        if not self.checkpoints or any(v < AGGREGATION_WINDOW
                                       for v in self.checkpoints):
            raise ConfigurationError(
                f"ratio.checkpoints: each must be >= {AGGREGATION_WINDOW}")


# The keys that only one kind of a section reads. The reader rejects the
# other kind's keys as unknown and the writer leaves them out, so a spec
# must hold their defaults.
_KIND_KEYS = {
    TopologySpec: {"cycle": {"bidirectional"}, "random": {"edge_prob"}},
    ObjectiveSpec: {"quadratic": {"dim"},
                    "svm": {"points_per_node", "cost_scale"}},
}


def _foreign_keys(cls, kind) -> set:
    """The keys of section `cls` that a `kind` spec does not read."""
    by_kind = _KIND_KEYS.get(cls, {})
    if kind not in by_kind:
        return set()
    return set().union(*by_kind.values()) - by_kind[kind]


def _check_kind(spec, section: str) -> None:
    kinds = _KIND_KEYS[type(spec)]
    if spec.kind not in kinds:
        raise ConfigurationError(f"{section}.kind: got {spec.kind!r}, "
                                 f"want {' or '.join(kinds)}")
    foreign = _foreign_keys(type(spec), spec.kind)
    for f in fields(spec):
        if f.name in foreign and getattr(spec, f.name) != f.default:
            raise ConfigurationError(
                f"{section}.{f.name}: not read for kind={spec.kind}")


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    name: str = ""
    topology: TopologySpec
    faults: FaultBounds
    objective: ObjectiveSpec
    noise_width: float
    horizon: int
    runs: int = 100
    batch_size: int = 10
    master_seed: int = 0
    step_offset: int = 0
    outdir: str | None = None
    ratio: RatioSpec | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigurationError("horizon: must be >= 1")
        if self.runs < 1:
            raise ConfigurationError("runs: must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size: must be >= 1")
        if not 0.0 < self.noise_width < np.inf:
            raise ConfigurationError(
                "noise_width: must be positive and finite")
        if self.step_offset < 0:
            raise ConfigurationError("step_offset: must be >= 0")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ConfigurationError("master_seed: must be in [0, 2**64)")

    @staticmethod
    def from_mapping(obj: dict) -> "ExperimentConfig":
        return _read(ExperimentConfig, obj, "")

    @staticmethod
    def from_file(path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigurationError(f"config file not found: {path}")
        try:
            obj = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
        return ExperimentConfig.from_mapping(obj)

    def as_dict(self) -> dict:
        return _write(self)


# JSON scalar per field type: what the error names, and the accepted types
_SCALARS = {int: ("an integer", int), float: ("a number", (int, float)),
            bool: ("true/false", bool), str: ("a string", str)}


def _read(cls, obj, where: str):
    """Build section `cls` from a JSON object. A field without a default is
    required, any other key is an error, and each value must have its
    field's type. `where` is the section's dotted path ("" at the root)."""
    here = where or "config"
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{here}: expected an object")
    hints = get_type_hints(cls)
    values = {name: _value(obj[name], hint,
                           f"{where}.{name}" if where else name)
              for name, hint in hints.items() if name in obj}
    unknown = (set(obj) - set(hints)) \
        | (set(obj) & _foreign_keys(cls, values.get("kind")))
    if unknown:
        raise ConfigurationError(
            f"{here}: unknown keys {sorted(unknown)}")
    for f in fields(cls):
        if f.default is MISSING and f.name not in obj:
            raise ConfigurationError(f"{here}: missing key '{f.name}'")
    return cls(**values)


def _value(value, hint, where: str):
    """One JSON value as field type `hint`: a scalar, a section, a list
    for tuple[int, ...], or X for an optional X | None (null is never
    written)."""
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigurationError(f"{where}: expected a list")
        return tuple(_value(v, get_args(hint)[0], f"{where}[{i}]")
                     for i, v in enumerate(value))
    if get_args(hint):
        return _value(value, get_args(hint)[0], where)
    if is_dataclass(hint):
        return _read(hint, value, where)
    what, accepted = _SCALARS[hint]
    if isinstance(value, bool) != (hint is bool) \
            or not isinstance(value, accepted):
        raise ConfigurationError(f"{where}: expected {what}")
    return float(value) if hint is float else value


def _write(spec) -> dict:
    """The JSON object of a section: every field except the keys of the
    other kind and the optional entries that are None."""
    foreign = _foreign_keys(type(spec), getattr(spec, "kind", None))
    out = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.name in foreign or value is None:
            continue
        if is_dataclass(value):
            value = _write(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


# ---------------------------------------------------------------------------
# Problem construction shared by decentralized and centralized sides.

@dataclass
class ProblemInstance:
    topology: Topology
    objective: object
    noise: NoiseModel
    baseline_noise: NoiseModel
    z_star: np.ndarray
    dataset: tuple | None      # (features, labels) for svm
    optimum: OptimumCertificate | None   # the certified optimum, for svm
    ledger: StepSizeLedger     # gradient-push step sizes over the horizon


def build_problem(config: ExperimentConfig) -> ProblemInstance:
    topo = config.topology.build(config.master_seed)
    n = topo.n
    dataset = cert = None
    if config.objective.kind == "quadratic":
        objective = generate_quadratic(n, config.objective.dim,
                                       config.master_seed)
        z_star = objective.optimum()
    else:
        features, labels = generate_svm_dataset(
            n, config.master_seed,
            points_per_node=config.objective.points_per_node)
        objective = SvmObjective(
            features, labels,
            penalty_numerator=config.objective.cost_scale)
        cert = solve_reference_optimum(objective)
        z_star = cert.z_star
        dataset = (features, labels)
    dim = objective.dim
    noise = box_noise_model(config.noise_width, dim)
    # one full-gradient evaluation aggregates n local samples, so the
    # centralized half-width scales with sqrt(n) to carry their summed
    # variance
    baseline = box_noise_model(config.noise_width, dim,
                               scale=float(np.sqrt(n)))
    ledger = StepSizeLedger(numerator=n, mu=objective.mu_total,
                            horizon=config.horizon, k0=config.step_offset)
    return ProblemInstance(topo, objective, noise, baseline, z_star, dataset,
                           cert, ledger)


def centralized_baseline(problem: ProblemInstance, horizon: int,
                         master_seed: int, runs: range, update_gap: int,
                         step_offset: int) -> np.ndarray:
    """Noisy full-gradient descent stepping once per update_gap slots.

    Step size at update slot k is update_gap / (mu_total * (k + offset));
    the iterate holds between updates. Returns squared distance to the
    optimum on the full slot grid, shape (len(runs), horizon+1).
    """
    obj = problem.objective
    updates = horizon // update_gap
    eps = problem.baseline_noise.from_uniforms(np.stack([
        stream(master_seed, run, Role.BASELINE_NOISE, 0).random(
            (updates, obj.dim)) for run in runs]))      # (B, updates, d)
    update_slots = np.arange(1, updates + 1) * update_gap
    alphas = update_gap / (obj.mu_total * (update_slots + step_offset))
    x = np.empty((len(runs), updates + 1, obj.dim))
    x[:, 0] = 1.0
    for j in range(updates):
        x[:, j + 1] = x[:, j] - alphas[j] * (obj.batch_total_gradient(x[:, j])
                                             + eps[:, j])
    del eps   # lowers the peak of the error pass below by one noise array
    err = np.sum((x - problem.z_star) ** 2, axis=2)     # (B, updates + 1)
    # slot k holds the iterate of the last update at or before it
    return np.take(err, np.arange(horizon + 1) // update_gap, axis=1)


# ---------------------------------------------------------------------------
# Aggregation pipeline (pure functions of the raw series).

def batch_window_means(raw: np.ndarray, batch_size: int):
    """Stage 1+2 of the pipeline.

    raw is (R, K+1) with slot 0 first. Runs are grouped into consecutive
    batches (last batch may be short), averaged pointwise, then averaged over
    non-overlapping windows of AGGREGATION_WINDOW slots covering slots
    [1, W * AGGREGATION_WINDOW]. Returns (k_grid (W,), means (n_batches, W))
    with k_grid at right window edges.
    """
    # the sums' last bits depend on memory order; fix it to C, the order
    # of the engine's series and of read_raw
    raw = np.ascontiguousarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[0] < 1:
        raise ConfigurationError("raw series must be (runs, slots)")
    R, K1 = raw.shape
    W = (K1 - 1) // AGGREGATION_WINDOW
    if W < 1:
        raise ConfigurationError(
            f"horizon {K1 - 1} shorter than one window ({AGGREGATION_WINDOW})")
    starts = range(0, R, batch_size)
    batch_means = np.stack([raw[s:s + batch_size].mean(axis=0)
                            for s in starts])
    trimmed = batch_means[:, 1:1 + W * AGGREGATION_WINDOW]
    means = trimmed.reshape(batch_means.shape[0], W,
                            AGGREGATION_WINDOW).mean(axis=2)
    k_grid = (np.arange(W) + 1) * AGGREGATION_WINDOW
    return k_grid, means


def aggregate_series(raw: np.ndarray, batch_size: int):
    """Median across batches with a 1-std band (ddof=1; zero for one batch).

    Returns (k_grid, median, std).
    """
    k_grid, means = batch_window_means(raw, batch_size)
    med = np.median(means, axis=0)
    std = means.std(axis=0, ddof=1) if means.shape[0] > 1 \
        else np.zeros(means.shape[1])
    return k_grid, med, std


@dataclass
class MetricSeries:
    k: np.ndarray
    e_dist: np.ndarray
    e_dist_std: np.ndarray
    e_c: np.ndarray
    e_c_std: np.ndarray
    k_e_dist: np.ndarray
    k_e_c: np.ndarray


def reduce_metrics(e_dist_raw: np.ndarray, e_c_raw: np.ndarray,
                   batch_size: int) -> MetricSeries:
    slots = np.arange(e_dist_raw.shape[1], dtype=float)
    k, d_med, d_std = aggregate_series(e_dist_raw, batch_size)
    _, c_med, c_std = aggregate_series(e_c_raw, batch_size)
    _, kd_med, _ = aggregate_series(e_dist_raw * slots, batch_size)
    _, kc_med, _ = aggregate_series(e_c_raw * slots, batch_size)
    return MetricSeries(k, d_med, d_std, c_med, c_std, kd_med, kc_med)


# ---------------------------------------------------------------------------
# File emission.

def write_csv(path: Path, header: str, *columns, held=()) -> None:
    """Every table pushsim writes: the header, then one row per entry of
    the columns, each line ending in LF. An integer column is written as
    %d and any other with 17 significant digits (round-trip exact). The
    whole file is formatted to bytes in one operation.

    A column whose position is in `held` holds each value for runs of
    rows; each run is formatted once, and runs are told apart by bit
    pattern, since -0.0 and 0.0 compare equal but print differently."""
    width, rows = len(columns), len(columns[0])
    cells = [None] * (rows * width)
    formats = []
    for j, column in enumerate(columns):
        column = np.asarray(column)
        if np.issubdtype(column.dtype, np.integer):
            cells[j::width] = column.tolist()
            formats.append(b"%d")
        elif j in held:
            cells[j::width] = _format_runs(column.astype(float, copy=False))
            formats.append(b"%s")
        else:
            cells[j::width] = column.astype(float, copy=False).tolist()
            formats.append(b"%.17g")
    row = b",".join(formats) + b"\n"
    path.write_bytes(header.encode() + b"\n" + row * rows % tuple(cells))


def _format_runs(column: np.ndarray) -> list[bytes]:
    """Each entry of a float column with 17 significant digits, formatting
    every run of bit-identical entries once."""
    bits = column.view(np.int64)
    new_run = np.ones(len(bits), dtype=bool)
    new_run[1:] = bits[1:] != bits[:-1]
    starts = np.flatnonzero(new_run)
    texts = (b"%.17g\n" * len(starts) % tuple(column[starts].tolist())
             ).split()
    counts = np.diff(np.append(starts, len(column)))
    return np.repeat(np.array(texts, dtype=object), counts).tolist()


def read_raw(path: Path) -> tuple[np.ndarray, np.ndarray]:
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return body[:, 1], body[:, 2]


def save_optimum(cert: OptimumCertificate, path: Path) -> None:
    """optimum.csv: one line `z` and the optimum's coordinates, then
    `grad_norm` and `iterations` lines for its certificate, space
    separated, floats with 17 significant digits."""
    z = cert.z_star.tolist()
    path.write_bytes(b"z" + b" %.17g" * len(z) % tuple(z)
                     + b"\ngrad_norm %.17g\niterations %d\n"
                     % (cert.grad_norm, cert.iterations))


def write_line_plot(path: Path, curves: dict, title: str) -> None:
    """Single-file SVG, log-log axes. curves: name -> (x, y) arrays."""
    width, height, pad = 640, 420, 54
    xs = np.concatenate([np.asarray(x, dtype=float) for x, _ in
                         curves.values()])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, y in
                         curves.values()])
    good = (xs > 0) & np.isfinite(xs)
    lo_x, hi_x = np.log10(xs[good].min()), np.log10(xs[good].max())
    pos = ys[(ys > 0) & np.isfinite(ys)]
    lo_y = np.log10(pos.min()) if pos.size else -1.0
    hi_y = np.log10(pos.max()) if pos.size else 1.0
    if hi_x <= lo_x:
        hi_x = lo_x + 1.0
    if hi_y <= lo_y:
        hi_y = lo_y + 1.0

    def sx(v):
        return pad + (np.log10(v) - lo_x) / (hi_x - lo_x) * (width - 2 * pad)

    def sy(v):
        return height - pad - (np.log10(v) - lo_y) / (hi_y - lo_y) \
            * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<text x="{width / 2}" y="20" text-anchor="middle" '
             f'font-size="14">{title}</text>',
             f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
             f'height="{height - 2 * pad}" fill="none" stroke="#333"/>']
    for dec in range(int(np.ceil(lo_x)), int(np.floor(hi_x)) + 1):
        x = sx(10.0 ** dec)
        parts.append(f'<line x1="{x:.1f}" y1="{pad}" x2="{x:.1f}" '
                     f'y2="{height - pad}" stroke="#ddd"/>')
        parts.append(f'<text x="{x:.1f}" y="{height - pad + 16}" '
                     f'text-anchor="middle" font-size="11">1e{dec}</text>')
    for dec in range(int(np.ceil(lo_y)), int(np.floor(hi_y)) + 1):
        y = sy(10.0 ** dec)
        parts.append(f'<line x1="{pad}" y1="{y:.1f}" x2="{width - pad}" '
                     f'y2="{y:.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{pad - 6}" y="{y + 4:.1f}" '
                     f'text-anchor="end" font-size="11">1e{dec}</text>')
    for c, (name, (x, y)) in enumerate(curves.items()):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = (x > 0) & (y > 0) & np.isfinite(x) & np.isfinite(y)
        pts = " ".join(f"{sx(a):.1f},{sy(b):.1f}"
                       for a, b in zip(x[keep], y[keep]))
        color = colors[c % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - pad - 4}" '
                     f'y="{pad + 16 + 14 * c}" text-anchor="end" '
                     f'font-size="12" fill="{color}">{name}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Experiment orchestration.

@dataclass
class ExperimentResult:
    config: ExperimentConfig
    outdir: Path
    series: MetricSeries
    e_dist_raw: np.ndarray
    e_c_raw: np.ndarray
    problem: ProblemInstance


def _error_series(config: ExperimentConfig, problem: ProblemInstance
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(E_dist, E_c) raw series, each (runs, horizon+1): gradient-push and
    the centralized baseline on the same run indices."""
    runs = range(config.runs)
    result = run_gradient_push(
        problem.topology, config.faults, problem.objective, problem.noise,
        problem.ledger, config.horizon, config.master_seed, runs=tuple(runs),
        z_star=problem.z_star)
    e_c = centralized_baseline(problem, config.horizon, config.master_seed,
                               runs, config.faults.max_wake_gap,
                               config.step_offset)
    return result.e_dist, e_c


def run_experiment(config: ExperimentConfig, outdir: str | Path,
                   persist_raw: bool = True,
                   plot: bool = False) -> ExperimentResult:
    """Execute R paired runs and write the full artifact set.

    Artifacts: manifest.json (config echo + status), per-run raw CSVs
    (optional), errors.csv, k_errors.csv, dataset/optimum files for svm,
    optional errors.svg. On failure the manifest records the failing run
    index, slot and node for replay before the error propagates. A horizon
    shorter than one aggregation window, or a problem that cannot be built
    (its reference optimum not certified), is rejected before anything is
    simulated or written.
    """
    from . import __version__

    if config.horizon < AGGREGATION_WINDOW:
        raise ConfigurationError(
            f"horizon {config.horizon} shorter than one aggregation window "
            f"({AGGREGATION_WINDOW})")
    problem = build_problem(config)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": __version__,
        "status": "running",
        "config": config.as_dict(),
    }
    _write_manifest(outdir, manifest)
    if problem.dataset is not None:
        features, labels = problem.dataset
        n, s, _ = features.shape
        write_csv(outdir / "dataset.csv", "node,feature1,feature2,label",
                  np.repeat(np.arange(n), s), features[..., 0].reshape(-1),
                  features[..., 1].reshape(-1),
                  labels.reshape(-1).astype(int))
        save_optimum(problem.optimum, outdir / "optimum.csv")

    try:
        e_dist_raw, e_c_raw = _error_series(config, problem)
    except PushsimError as exc:
        manifest["status"] = "failed"
        manifest["error"] = str(exc)
        for key in ("run", "slot", "node"):
            manifest[f"failing_{key}"] = getattr(exc, key, None)
        _write_manifest(outdir, manifest)
        raise

    raw_files = []
    if persist_raw:
        slots = np.arange(config.horizon + 1)
        for r in range(config.runs):
            name = RAW_NAME.format(r)
            # the baseline holds its iterate between updates
            write_csv(outdir / name, "k,E_dist,E_c", slots, e_dist_raw[r],
                      e_c_raw[r], held=(2,))
            raw_files.append(name)
    series = reduce_metrics(e_dist_raw, e_c_raw, config.batch_size)
    write_csv(outdir / "errors.csv", "k,E_dist,E_c,E_dist_std,E_c_std",
              series.k, series.e_dist, series.e_c, series.e_dist_std,
              series.e_c_std)
    write_csv(outdir / "k_errors.csv", "k,k_E_dist,k_E_c", series.k,
              series.k_e_dist, series.k_e_c)
    if plot:
        write_line_plot(outdir / "errors.svg", {
            "E_dist": (series.k, series.e_dist),
            "E_c": (series.k, series.e_c),
        }, config.name or "experiment")
    manifest["status"] = "complete"
    manifest["raw_files"] = raw_files
    manifest["z_star"] = [float(v) for v in problem.z_star]
    manifest["mu_total"] = float(problem.objective.mu_total)
    _write_manifest(outdir, manifest)
    return ExperimentResult(config, outdir, series, e_dist_raw, e_c_raw,
                            problem)


def _write_manifest(outdir: Path, manifest: dict) -> None:
    (outdir / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def replay(outdir: str | Path, target: str | Path | None = None) -> bool:
    """Re-run a recorded experiment and byte-compare its artifacts.

    Reads manifest.json from outdir, re-executes into target (default
    outdir/replay), and returns True when every persisted raw file,
    errors.csv and k_errors.csv, and dataset.csv and optimum.csv where
    either run has them, match byte for byte.
    """
    outdir = Path(outdir)
    manifest_path = outdir / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ConfigurationError(f"no manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    config = ExperimentConfig.from_mapping(manifest["config"])
    raw_files = manifest.get("raw_files", [])
    if not raw_files:
        raise ConfigurationError(
            f"{manifest_path}: no persisted raw files to replay against")
    target = Path(target) if target is not None else outdir / "replay"
    run_experiment(config, target, persist_raw=True)
    names = list(raw_files) + ["errors.csv", "k_errors.csv"]
    names += [name for name in ("dataset.csv", "optimum.csv")
              if (outdir / name).exists() or (target / name).exists()]
    return all(_same_bytes(outdir / name, target / name) for name in names)


def _same_bytes(a: Path, b: Path) -> bool:
    return a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# Error-ratio study over network sizes.

@dataclass
class RatioRow:
    n: int
    k: int
    ratio: float
    ratio_std: float


def ratio_study(template: ExperimentConfig, sizes, checkpoints,
                outdir: str | Path | None = None) -> list[RatioRow]:
    """Centralized-to-decentralized error ratio across network sizes.

    For each size the template is rebuilt on a bidirectional cycle; ratios
    are computed per batch at each checkpoint's aggregation window and
    published as the median with a 1-std band across batches.
    """
    if template.topology.kind != "cycle" or not template.topology.bidirectional:
        raise ConfigurationError(
            "ratio study runs on bidirectional cycles only")
    for k in checkpoints:
        if k % AGGREGATION_WINDOW != 0 or k < AGGREGATION_WINDOW:
            raise ConfigurationError(
                f"checkpoint {k} not on the {AGGREGATION_WINDOW}-slot "
                "aggregation grid")
        if k > template.horizon:
            raise ConfigurationError(
                f"checkpoint {k} beyond horizon {template.horizon}")
    rows = []
    for n in sizes:
        config = replace(template, topology=replace(template.topology, n=n),
                         ratio=None)
        e_dist, e_c = _error_series(config, build_problem(config))
        _, d_means = batch_window_means(e_dist, config.batch_size)
        _, c_means = batch_window_means(e_c, config.batch_size)
        for k in checkpoints:
            idx = k // AGGREGATION_WINDOW - 1
            per_batch = c_means[:, idx] / d_means[:, idx]
            std = per_batch.std(ddof=1) if per_batch.size > 1 else 0.0
            rows.append(RatioRow(n, k, float(np.median(per_batch)),
                                 float(std)))
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        write_csv(outdir / "ratio.csv", "n,k,ratio,ratio_std",
                  *zip(*((row.n, row.k, row.ratio, row.ratio_std)
                         for row in rows)))
    return rows
