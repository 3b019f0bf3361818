"""Experiment harness: config parsing, aggregation, persistence, replay."""

import dataclasses
import json
import pathlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from pushsim import harness
from pushsim.cli import main as cli_main
from pushsim.errors import ConfigurationError, ProtocolViolationError
from pushsim.faultnet import realize_schedule
from pushsim.harness import (ExperimentConfig, aggregate_series,
                             batch_window_means, build_problem,
                             centralized_baseline, ratio_study, read_raw,
                             reduce_metrics, replay, run_experiment)
from pushsim.objectives import save_optimum
from pushsim.optimizer import StepSizeLedger, run_gradient_push

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

BASE = {
    "name": "tiny",
    "topology": {"kind": "cycle", "n": 3, "bidirectional": True},
    "faults": {"max_wake_gap": 2, "max_consecutive_losses": 1,
               "max_transmission_delay": 2, "wake_prob": 0.6,
               "loss_prob": 0.2},
    "objective": {"kind": "quadratic", "dim": 2},
    "noise_width": 4.0,
    "horizon": 400,
    "runs": 4,
    "batch_size": 2,
    "master_seed": 77,
    "step_offset": 5,
}


def config(**overrides):
    raw = json.loads(json.dumps(BASE))
    raw.update(overrides)
    return ExperimentConfig.from_mapping(raw)


# ------------------------------------------------------------- configs

def test_config_round_trip(tmp_path):
    cfg = config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.as_dict()))
    again = ExperimentConfig.from_file(path)
    assert again.as_dict() == cfg.as_dict()
    assert again.faults.loss_prob == 0.2
    assert again.topology.n == 3


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="unknown"):
        config(extra_knob=1)
    bad = json.loads(json.dumps(BASE))
    bad["topology"]["flavor"] = "x"
    with pytest.raises(ConfigurationError, match="unknown"):
        ExperimentConfig.from_mapping(bad)


def test_config_rejects_missing_and_mistyped_fields():
    bad = json.loads(json.dumps(BASE))
    del bad["horizon"]
    with pytest.raises(ConfigurationError, match="horizon"):
        ExperimentConfig.from_mapping(bad)
    with pytest.raises(ConfigurationError):
        config(horizon="long")
    with pytest.raises(ConfigurationError):
        config(horizon=True)              # bools are not slot counts
    with pytest.raises(ConfigurationError):
        config(noise_width=0.0)
    with pytest.raises(ConfigurationError):
        config(runs=0)


def test_config_cross_kind_topology_keys_rejected():
    bad = json.loads(json.dumps(BASE))
    bad["topology"] = {"kind": "cycle", "n": 3, "edge_prob": 0.5}
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_mapping(bad)
    ok = json.loads(json.dumps(BASE))
    ok["topology"] = {"kind": "random", "n": 4, "edge_prob": 0.5}
    cfg = ExperimentConfig.from_mapping(ok)
    problem = build_problem(cfg)
    assert problem.topology.n == 4


def test_ratio_checkpoints_validated(tmp_path):
    with pytest.raises(ConfigurationError):
        config(ratio={"sizes": [5], "checkpoints": [50]})
    # a checkpoint past the horizon only surfaces when the study runs
    cfg = config(ratio={"sizes": [3], "checkpoints": [500]}, horizon=400)
    with pytest.raises(ConfigurationError, match="beyond"):
        ratio_study(cfg, cfg.ratio.sizes, cfg.ratio.checkpoints,
                    outdir=tmp_path / "r")
    cfg = config(ratio={"sizes": [3, 5], "checkpoints": [200, 400]})
    assert cfg.ratio.sizes == (3, 5)


def test_random_topology_edge_prob_defaults_to_half():
    raw = json.loads(json.dumps(BASE))
    raw["topology"] = {"kind": "random", "n": 4}
    cfg = ExperimentConfig.from_mapping(raw)
    assert cfg.topology.edge_prob == 0.5
    assert cfg.topology.as_dict() == {"kind": "random", "n": 4,
                                      "edge_prob": 0.5}


def test_ratio_spec_entries_must_be_integers():
    # strings, floats and bools were truncated to ints before
    with pytest.raises(ConfigurationError,
                       match=r"^ratio\.sizes\[0\]: expected an integer$"):
        config(ratio={"sizes": ["5", 2.7, True],
                      "checkpoints": [100.9, "200"]})
    for key, bad in (("sizes", 2.7), ("sizes", True), ("checkpoints", 100.9),
                     ("checkpoints", "200")):
        ratio = {"sizes": [3, 5], "checkpoints": [100, 200]}
        ratio[key] = ratio[key] + [bad]
        with pytest.raises(ConfigurationError,
                           match=rf"^ratio\.{key}\[2\]: expected an "
                                 "integer$"):
            config(ratio=ratio)


def test_ratio_study_checks_checkpoints_before_any_run(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "_error_series",
                        lambda *args: calls.append(args))
    cfg = config(horizon=400)
    for checkpoints, message in (([200, 500], "beyond horizon 400"),
                                 ([200, 250], "not on the 100-slot"),
                                 ([0], "not on the 100-slot")):
        with pytest.raises(ConfigurationError, match=message):
            ratio_study(cfg, [3, 5], checkpoints)
    assert calls == []


# -------------------------------------------------------- aggregation

def test_window_means_of_constant_series_are_exact():
    raw = np.full((6, 701), 3.25)
    k, w = batch_window_means(raw, 3)
    assert np.array_equal(k, np.arange(100, 701, 100))
    assert w.shape == (2, 7)
    assert np.all(w == 3.25)


def test_window_means_average_within_batch_and_window():
    # two batches at constant levels s and 3s: medians land between,
    # per-batch rows keep their level
    raw = np.vstack([np.full((2, 201), 1.0), np.full((2, 201), 3.0)])
    k, w = batch_window_means(raw, 2)
    assert np.allclose(w[0], 1.0) and np.allclose(w[1], 3.0)
    med, std = aggregate_series(raw, 2)[1:]
    assert np.allclose(med, 2.0)
    assert np.allclose(std, np.std([1.0, 3.0], ddof=1))


def test_window_grid_drops_partial_tail():
    raw = np.ones((2, 251))                 # slots 0..250: two full windows
    k, w = batch_window_means(raw, 2)
    assert k.tolist() == [100, 200]
    assert w.shape == (1, 2)


def test_window_mean_uses_slots_from_one(tmp_path):
    # E(k) = 1/k for k >= 1: windowed k*E must sit near 1, proving the
    # multiply-then-window order and the [1, 100] first window
    slots = np.arange(1, 401)
    raw = (1.0 / slots)[None, :]
    raw = np.concatenate([[[np.nan]], raw], axis=1)   # slot 0 is unused
    ke = slots[None, :] * raw[:, 1:]
    k, w = batch_window_means(np.concatenate([[[0.0]], ke], axis=1), 1)
    assert np.allclose(w, 1.0)


def test_reduce_metrics_multiplies_before_windowing():
    from pushsim.harness import reduce_metrics
    slots = np.arange(0, 301, dtype=float)
    e = np.zeros((2, 301))
    e[:, 1:] = 1.0 / slots[1:]
    series = reduce_metrics(e, e.copy(), batch_size=1)
    assert np.allclose(series.k_e_dist, 1.0, atol=1e-12)
    # windowing E first and multiplying after would overshoot: the first
    # window mean of 1/k is ~0.052 and 100 * 0.052 != 1
    assert abs(series.e_dist[0] * series.k[0] - 1.0) > 3.0


# ------------------------------------------------------- CSV writers

def reference_raw(e_dist, e_c):
    """Row-by-row f-string form the writers must reproduce byte for byte."""
    lines = ["k,E_dist,E_c"]
    for k in range(e_dist.shape[0]):
        lines.append(f"{k},{e_dist[k]:.17g},{e_c[k]:.17g}")
    return "\n".join(lines) + "\n"


def reference_errors(series):
    lines = ["k,E_dist,E_c,E_dist_std,E_c_std"]
    for i, k in enumerate(series.k):
        lines.append(f"{int(k)},{series.e_dist[i]:.17g},"
                     f"{series.e_c[i]:.17g},{series.e_dist_std[i]:.17g},"
                     f"{series.e_c_std[i]:.17g}")
    return "\n".join(lines) + "\n"


def reference_k_errors(series):
    lines = ["k,k_E_dist,k_E_c"]
    for i, k in enumerate(series.k):
        lines.append(f"{int(k)},{series.k_e_dist[i]:.17g},"
                     f"{series.k_e_c[i]:.17g}")
    return "\n".join(lines) + "\n"


SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                  2.2250738585072014e-308, 1e300, -1e300, np.inf, -np.inf,
                  np.nan, 0.1, 1.0 / 3.0, 123456789.0]


@pytest.mark.parametrize("k_dtype", [int, float])
def test_csv_writers_match_row_by_row_formatting(tmp_path, k_dtype):
    rng = np.random.default_rng(5)
    size = 3 * len(SPECIAL_VALUES)
    cols = [np.concatenate([np.roll(SPECIAL_VALUES, j),
                            rng.standard_normal(size - len(SPECIAL_VALUES))
                            * 10.0 ** rng.integers(-300, 300,
                                                   size - len(SPECIAL_VALUES))])
            for j in range(6)]
    path = tmp_path / "raw.csv"
    harness._write_raw(path, cols[0], cols[1])
    assert path.read_text() == reference_raw(cols[0], cols[1])
    series = harness.MetricSeries(
        (np.arange(size) * 100 + 100).astype(k_dtype), *cols[:6])
    harness._write_errors(path, series)
    assert path.read_text() == reference_errors(series)
    harness._write_k_errors(path, series)
    assert path.read_text() == reference_k_errors(series)
    empty = np.empty(0)
    harness._write_raw(path, empty, empty)
    assert path.read_text() == reference_raw(empty, empty)


# ------------------------------------------------- experiment pipeline

@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("exp") / "tiny"
    cfg = ExperimentConfig.from_mapping(BASE)
    result = run_experiment(cfg, outdir)
    return cfg, outdir, result


def test_experiment_outputs_and_manifest(tiny_run):
    cfg, outdir, result = tiny_run
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["config"] == cfg.as_dict()
    assert len(manifest["raw_files"]) == cfg.runs
    for rel in manifest["raw_files"]:
        assert (outdir / rel).exists()
    header = (outdir / manifest["raw_files"][0]).read_text().splitlines()[0]
    assert header == "k,E_dist,E_c"
    errors = (outdir / "errors.csv").read_text().splitlines()
    assert errors[0] == "k,E_dist,E_c,E_dist_std,E_c_std"
    assert len(errors) == 1 + cfg.horizon // 100
    assert (outdir / "k_errors.csv").exists()


def test_experiment_series_matches_raw_files(tiny_run, tmp_path):
    cfg, outdir, _ = tiny_run
    manifest = json.loads((outdir / "manifest.json").read_text())
    # every published number is recomputable from the raw files alone
    raws = [read_raw(outdir / rel) for rel in manifest["raw_files"]]
    series = reduce_metrics(np.stack([e_dist for e_dist, _ in raws]),
                            np.stack([e_c for _, e_c in raws]),
                            cfg.batch_size)
    recomputed = tmp_path / "recomputed"
    recomputed.mkdir()
    harness._write_errors(recomputed / "errors.csv", series)
    harness._write_k_errors(recomputed / "k_errors.csv", series)
    for name in ("errors.csv", "k_errors.csv"):
        assert (recomputed / name).read_bytes() == \
            (outdir / name).read_bytes(), name


def test_experiment_series_are_the_optimizer_and_its_baseline(tiny_run):
    # the raw series are gradient-push and the centralized baseline on the
    # config's runs, step numerator n, offset and update gap
    cfg, outdir, result = tiny_run
    problem = build_problem(cfg)
    ledger = StepSizeLedger(numerator=problem.topology.n,
                            mu=problem.objective.mu_total,
                            horizon=cfg.horizon, k0=cfg.step_offset)
    push = run_gradient_push(problem.topology, cfg.faults,
                             problem.objective, problem.noise, ledger,
                             cfg.horizon, cfg.master_seed,
                             runs=range(cfg.runs), z_star=problem.z_star)
    baseline = centralized_baseline(problem, cfg.horizon, cfg.master_seed,
                                    range(cfg.runs),
                                    update_gap=cfg.faults.max_wake_gap,
                                    step_offset=cfg.step_offset)
    assert np.array_equal(result.e_dist_raw, push.e_dist)
    assert np.array_equal(result.e_c_raw, baseline)


def test_replay_reproduces_and_detects_tampering(tiny_run, tmp_path):
    cfg, outdir, result = tiny_run
    assert replay(outdir, target=tmp_path / "replayed") is True
    victim = outdir / "run_0001.csv"
    text = victim.read_text()
    victim.write_text(text.replace(text.splitlines()[5],
                                   text.splitlines()[5] + "1"))
    assert replay(outdir, target=tmp_path / "replayed2") is False
    victim.write_text(text)
    errors = outdir / "errors.csv"
    text = errors.read_text()
    errors.write_text(text.replace(",", ",0", 1))
    assert replay(outdir, target=tmp_path / "replayed3") is False
    errors.write_text(text)
    assert replay(outdir) is True


def test_failing_run_located_in_manifest(tmp_path, monkeypatch):
    # run 2's gradients turn non-finite; the manifest must say where
    real_build = harness.build_problem

    class NanForRunTwo:
        def __init__(self, inner):
            self.inner = inner

        def __getattr__(self, name):
            return getattr(self.inner, name)

        def batch_local_gradients(self, z):
            g = self.inner.batch_local_gradients(z)
            g[2] = np.nan
            return g

    def build(cfg):
        problem = real_build(cfg)
        return dataclasses.replace(problem,
                                   objective=NanForRunTwo(problem.objective))

    monkeypatch.setattr(harness, "build_problem", build)
    cfg = ExperimentConfig.from_mapping(BASE)
    outdir = tmp_path / "failed"
    with pytest.raises(ProtocolViolationError):
        run_experiment(cfg, outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    topo = cfg.topology.build(cfg.master_seed)
    wake = realize_schedule(topo, cfg.faults, cfg.horizon, cfg.master_seed,
                            2).wake
    slot, node = (int(v) for v in np.argwhere(wake)[0])
    assert (manifest["failing_run"], manifest["failing_slot"],
            manifest["failing_node"]) == (2, slot, node)


def test_svm_optimum_is_solved_once_per_experiment(tmp_path, monkeypatch):
    real = harness.solve_reference_optimum
    calls = []

    def counted(objective):
        calls.append(objective)
        return real(objective)

    monkeypatch.setattr(harness, "solve_reference_optimum", counted)
    cfg = config(objective={"kind": "svm", "points_per_node": 20},
                 horizon=100, runs=2, batch_size=1)
    result = run_experiment(cfg, tmp_path / "svm")
    assert len(calls) == 1
    assert result.problem.optimum is not None
    # the saved certificate is the one a fresh solve gives
    save_optimum(real(result.problem.objective), tmp_path / "fresh.csv")
    assert ((tmp_path / "svm" / "optimum.csv").read_bytes()
            == (tmp_path / "fresh.csv").read_bytes())


def test_baseline_updates_on_gap_and_is_deterministic(tiny_run):
    cfg = config(horizon=60)
    problem = build_problem(cfg)
    a = centralized_baseline(problem, 60, cfg.master_seed, range(2),
                             update_gap=5, step_offset=cfg.step_offset)
    b = centralized_baseline(problem, 60, cfg.master_seed, range(2),
                             update_gap=5, step_offset=cfg.step_offset)
    assert np.array_equal(a, b)
    assert a.shape == (2, 61)
    # piecewise constant between updates at multiples of the gap
    for r in range(2):
        for k in range(61):
            base = (k // 5) * 5
            assert a[r, k] == a[r, base]
    assert not np.array_equal(a[:, ::5][:, 1:], a[:, ::5][:, :-1])


def test_single_node_ratio_is_unity_scale(tmp_path):
    cfg = config(topology={"kind": "cycle", "n": 1}, horizon=4000,
                 runs=40, batch_size=10, master_seed=15,
                 faults={"max_wake_gap": 1, "max_consecutive_losses": 0,
                         "max_transmission_delay": 1})
    rows = ratio_study(cfg, sizes=[1], checkpoints=[4000],
                       outdir=tmp_path / "ratio")
    assert len(rows) == 1
    assert rows[0].n == 1 and rows[0].k == 4000
    # same recursion up to noise realization: the ratio hugs one
    assert 0.4 < rows[0].ratio < 2.5
    text = (tmp_path / "ratio" / "ratio.csv").read_text().splitlines()
    assert text[0] == "n,k,ratio,ratio_std"
    assert len(text) == 2


# ------------------------------------------------------------- cli

def test_cli_exit_codes(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(BASE, horizon=120, runs=2,
                                        batch_size=1)))
    out = tmp_path / "out"
    assert cli_main(["rasgp", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    assert (out / "errors.csv").exists()
    missing = cli_main(["rasgp", "--config", str(tmp_path / "nope.json"),
                        "--out", str(out)])
    assert missing == 2
    bad = json.loads(json.dumps(BASE))
    bad["noise_width"] = -1
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert cli_main(["rasgp", "--config", str(bad_path)]) == 2


@pytest.mark.parametrize("command", ["raps", "rasgp"])
def test_cli_verify_states_audited_span(command, tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(BASE, runs=2, batch_size=1)))
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(cfg_path), "--out", str(out),
                     "--horizon", "1200", "--verify"]) == 0
    first = (out / "verify.txt").read_text().splitlines()[0]
    assert first == "audited slots 0-999 of 1200"
    assert first in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("horizon", [None, "1200"])
def test_cli_raps_verify_audits_the_recorded_run(horizon, tmp_path,
                                                 monkeypatch):
    """One simulation of run 0; verify.txt is what an independent
    ``verify_run`` over the audited span reports."""
    from pushsim import audit, cli, engine
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("runs"))
        return real(*args, **kwargs)

    real = engine.run_protocol
    monkeypatch.setattr(engine, "run_protocol", counted)
    monkeypatch.setattr(cli, "run_protocol", counted)
    cfg_path = CONFIGS / "verify_faulty_small.json"
    argv = ["raps", "--config", str(cfg_path), "--out", str(tmp_path),
            "--verify"] + (["--horizon", horizon] if horizon else [])
    assert cli_main(argv) == 0
    assert calls == [(0,)]
    monkeypatch.undo()
    cfg = ExperimentConfig.from_file(cfg_path)
    K = int(horizon) if horizon else cfg.horizon
    span = min(K, cli.AUDIT_SPAN_CAP)
    topo = cfg.topology.build(cfg.master_seed)
    x0 = cli._averaging_x0(cfg, topo.n, 0)
    report = audit.verify_run(topo, cfg.faults, x0, span, cfg.master_seed)
    expect = f"audited slots 0-{span - 1} of {K}\n" + report.to_text()
    assert (tmp_path / "verify.txt").read_text() == expect


@pytest.mark.parametrize("argv", [["verify", "--plot"],
                                  ["verify", "--verify"],
                                  ["ratio", "--verify"]])
def test_cli_rejects_flags_a_subcommand_does_not_read(argv, tmp_path,
                                                      capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(BASE))
    with pytest.raises(SystemExit) as exc:
        cli_main(argv + ["--config", str(cfg_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def svg_polylines(path, title):
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    assert title in [t.text for t in root.iter(ns + "text")]
    return root.findall(ns + "polyline")


def test_cli_plot_writes_parseable_svg(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(
        BASE, runs=2, batch_size=1, horizon=300,
        ratio={"sizes": [2, 3], "checkpoints": [100, 200, 300]})))
    common = ["--config", str(cfg_path), "--plot"]
    out = tmp_path / "raps"
    assert cli_main(["raps", "--out", str(out)] + common) == 0
    assert len(svg_polylines(out / "consensus.svg", "tiny")) == 1
    out = tmp_path / "rasgp"
    assert cli_main(["rasgp", "--out", str(out)] + common) == 0
    assert len(svg_polylines(out / "errors.svg", "tiny")) == 2
    out = tmp_path / "ratio"
    assert cli_main(["ratio", "--out", str(out)] + common) == 0
    assert len(svg_polylines(out / "ratio.svg", "error ratio")) == 3


def test_cli_replay_subcommand(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(BASE, horizon=120, runs=2,
                                        batch_size=1)))
    out = tmp_path / "out"
    assert cli_main(["rasgp", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    assert cli_main(["replay", "--out", str(out)]) == 0
    victim = out / "run_0000.csv"
    victim.write_text(victim.read_text().replace(",", ",0", 1))
    assert cli_main(["replay", "--out", str(out)]) == 1


def test_bundled_configs_parse_and_build():
    found = sorted(CONFIGS.glob("*.json"))
    assert len(found) == 5
    for path in found:
        cfg = ExperimentConfig.from_file(path)
        assert cfg.name == path.stem
        # every bundled config must at least build its problem instance
        if cfg.objective.kind == "quadratic":
            problem = build_problem(cfg)
            assert problem.z_star.shape == (cfg.objective.dim,)
