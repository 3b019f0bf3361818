"""Command-line front end.

Subcommands:
  raps    averaging demo on the configured network, optional audit
  rasgp   optimization experiment with the centralized baseline
  verify  audit campaign: rebuild runs as linear systems and cross-check
  ratio   centralized/decentralized error-ratio study over network sizes
  replay  re-run a recorded experiment and byte-compare raw outputs

Exit status: 0 success, 1 verification failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .audit import audit_trace, verify_run
from .engine import run_protocol
from .errors import ConfigurationError, PushsimError, VerificationError
from .harness import (ExperimentConfig, ratio_study, replay,
                      run_experiment, write_csv, write_line_plot)
from .optimizer import run_gradient_push
from .rng import Role, stream, uniform_box


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pushsim",
        description="Fault-tolerant push-based averaging and optimization "
                    "simulator with a linear-system audit.")
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {name: sub.add_parser(name, help=text) for name, text in (
        ("raps", "averaging demo + verification"),
        ("rasgp", "optimization experiment"),
        ("verify", "audit campaign"),
        ("ratio", "error-ratio study over sizes"))}
    for p in commands.values():
        p.add_argument("--config", required=True,
                       help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override master seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--runs", type=int, default=None,
                       help="override Monte Carlo run count")
        p.add_argument("--horizon", type=int, default=None,
                       help="override slot horizon")
    # each flag only on the subcommands that read it
    for name in ("raps", "rasgp"):
        commands[name].add_argument("--verify", action="store_true",
                                    help="attach the linear-system audit")
    for name in ("raps", "rasgp", "ratio"):
        commands[name].add_argument("--plot", action="store_true",
                                    help="also write an SVG line plot")
    rp = sub.add_parser("replay", help="re-run a recorded experiment")
    rp.add_argument("--out", required=True,
                    help="directory holding manifest.json and raw CSVs")
    rp.add_argument("--target", default=None,
                    help="where to place the re-run (default <out>/replay)")
    return parser


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if args.runs is not None:
        config = replace(config, runs=args.runs)
    if args.horizon is not None:
        config = replace(config, horizon=args.horizon)
    return config


def _outdir(args, config: ExperimentConfig) -> Path:
    if args.out is not None:
        return Path(args.out)
    if config.outdir is not None:
        return Path(config.outdir)
    return Path(f"out_{config.name}" if config.name else "out")


def _averaging_x0(config: ExperimentConfig, n: int, run: int) -> np.ndarray:
    """Run `run`'s initial values: uniform on [-3, 3) per coordinate, from
    its INIT stream, one coordinate per dimension of the configured
    objective."""
    dim = 3 if config.objective.kind == "svm" else config.objective.dim
    g = stream(config.master_seed, run, Role.INIT, 0)
    return uniform_box(g.random((n, dim)), 3.0)


def _cmd_raps(args) -> int:
    config = _load_config(args)
    outdir = _outdir(args, config)
    outdir.mkdir(parents=True, exist_ok=True)
    topo = config.topology.build(config.master_seed)
    x0 = _averaging_x0(config, topo.n, 0)
    result = run_protocol(topo, config.faults, x0, config.horizon,
                          config.master_seed, runs=(0,), record_trace=True)
    trace = result.trace
    _write_state_trace(outdir / "raps_trace.csv", trace)
    mean = x0.mean(axis=0)
    err = np.abs(trace.z - mean[None, None, :]).max(axis=(1, 2))
    write_csv(outdir / "consensus.csv", "k,max_error",
              np.arange(err.shape[0]), err)
    if args.plot:
        ks = np.arange(1, err.shape[0])
        write_line_plot(outdir / "consensus.svg",
                        {"max_error": (ks, err[1:])},
                        config.name or "averaging")
    print(f"raps: n={topo.n} K={config.horizon} "
          f"final max error {err[-1]:.3e}")
    if args.verify:
        # audit the run just recorded, not a second simulation of it
        _emit_verify(outdir, config, audit_trace(trace))
    return 0


def _write_state_trace(path: Path, trace) -> None:
    """The recorded trace, one row per (slot, node): slot, node, kappa, y,
    phi_y, then the x, z and phi_x coordinates."""
    slots, n, dim = trace.x.shape
    header = ["slot", "node", "kappa", "y", "phi_y"] + [
        f"{name}{c}" for name in ("x", "z", "phi_x") for c in range(dim)]
    columns = [*np.indices((slots, n)), trace.kappa, trace.y, trace.phi_y]
    columns += [v[..., c] for v in (trace.x, trace.z, trace.phi_x)
                for c in range(dim)]
    write_csv(path, ",".join(header), *(v.reshape(-1) for v in columns))


def _emit_verify(outdir: Path, config: ExperimentConfig, report) -> None:
    """Write verify.txt and print it; the first line states the span, the
    whole horizon."""
    text = f"audited slots 0-{config.horizon - 1} of {config.horizon}\n" \
        + report.to_text()
    (outdir / "verify.txt").write_text(text)
    print(text, end="")


def _cmd_rasgp(args) -> int:
    config = _load_config(args)
    outdir = _outdir(args, config)
    result = run_experiment(config, outdir, plot=args.plot)
    last = result.series
    print(f"rasgp: n={config.topology.n} K={config.horizon} "
          f"R={config.runs} final E_dist {last.e_dist[-1]:.3e} "
          f"E_c {last.e_c[-1]:.3e}")
    if args.verify:
        # rerun run 0 with the experiment's own problem and step sizes,
        # recording its trace, and audit it
        problem = result.problem
        trace = run_gradient_push(
            problem.topology, config.faults, problem.objective,
            problem.noise, problem.ledger, config.horizon,
            config.master_seed, runs=(0,), record_trace=True).trace
        _emit_verify(outdir, config, audit_trace(trace))
    return 0


def _cmd_verify(args) -> int:
    config = _load_config(args)
    outdir = _outdir(args, config)
    outdir.mkdir(parents=True, exist_ok=True)
    topo = config.topology.build(config.master_seed)
    lines = []
    failed = False
    for run in range(config.runs):
        x0 = _averaging_x0(config, topo.n, run)
        try:
            report = verify_run(topo, config.faults, x0, config.horizon,
                                config.master_seed, run=run)
        except VerificationError as exc:
            lines.append(f"run {run}: FAILED: {exc}")
            failed = True
            continue
        lines.append(f"run {run}:")
        lines.extend("  " + ln for ln in report.lines())
    text = "\n".join(lines) + "\n"
    (outdir / "verification.txt").write_text(text)
    print(text, end="")
    if failed:
        raise VerificationError("audit campaign found failing identities")
    return 0


def _cmd_ratio(args) -> int:
    config = _load_config(args)
    if config.ratio is None:
        raise ConfigurationError(
            "ratio subcommand needs a 'ratio' section in the config")
    outdir = _outdir(args, config)
    rows = ratio_study(config, config.ratio.sizes,
                       config.ratio.checkpoints, outdir)
    for row in rows:
        print(f"n={row.n} k={row.k} ratio={row.ratio:.4f} "
              f"band={row.ratio_std:.4f}")
    if args.plot:
        curves = {}
        for k in config.ratio.checkpoints:
            pts = [(row.n, row.ratio) for row in rows if row.k == k]
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            curves[f"k={k}"] = (xs, ys)
        write_line_plot(outdir / "ratio.svg", curves, "error ratio")
    return 0


def _cmd_replay(args) -> int:
    identical = replay(args.out, args.target)
    if not identical:
        raise VerificationError("replay diverged from recorded raw series")
    print("replay: raw series byte-identical")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "raps": _cmd_raps,
        "rasgp": _cmd_rasgp,
        "verify": _cmd_verify,
        "ratio": _cmd_ratio,
        "replay": _cmd_replay,
    }
    try:
        return handlers[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PushsimError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
