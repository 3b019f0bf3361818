"""Experiment harness: config parsing, aggregation, persistence, replay."""

import csv
import dataclasses
import hashlib
import json
import pathlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from pushsim import harness
from pushsim.cli import main as cli_main
from pushsim.engine import run_protocol
from pushsim.errors import (ConfigurationError, ProtocolViolationError,
                            ReferenceSolverError)
from pushsim.faultnet import FaultBounds, realize_schedule
from pushsim.graph import build_cycle
from pushsim.harness import (ExperimentConfig, aggregate_series,
                             batch_median, batch_window_means, build_problem,
                             centralized_baseline, ratio_study, read_raw,
                             reduce_metrics, replay, run_experiment,
                             save_optimum, write_csv)
from pushsim.optimizer import StepSizeLedger, run_gradient_push
from pushsim.rng import Role, stream

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
    # every bundled config: cycle and random topologies, both objectives,
    # the ratio section, and a changed outdir
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = ExperimentConfig.from_file(path)
        for spec in (cfg, dataclasses.replace(cfg, outdir="elsewhere")):
            again = ExperimentConfig.from_mapping(
                json.loads(json.dumps(spec.as_dict())))
            assert again == spec, path.name
            assert again.as_dict() == spec.as_dict(), path.name


@pytest.mark.parametrize("build, bad", [
    (lambda: harness.TopologySpec("cycle", 4), {"kind": "ring"}),
    (lambda: harness.TopologySpec("cycle", 3), {"n": 0}),
    (lambda: harness.TopologySpec("cycle", 3), {"edge_prob": 0.3}),
    (lambda: harness.TopologySpec("random", 3), {"bidirectional": False}),
    (lambda: harness.ObjectiveSpec("quadratic"), {"kind": "lasso"}),
    (lambda: harness.ObjectiveSpec("svm"), {"dim": 3}),
    (lambda: harness.RatioSpec((3,), (100,)), {"sizes": (0,)}),
    (lambda: harness.RatioSpec((3,), (100,)), {"checkpoints": (50,)}),
], ids=["unknown-topology", "no-nodes", "cycle-edge-prob",
        "random-direction", "unknown-objective", "svm-dim", "size-0",
        "checkpoint-below-window"])
def test_specs_built_in_code_are_checked(build, bad):
    # a spec built directly or through replace gets the checks a parsed
    # one gets: a "ring" no longer builds a random graph, nor a "lasso" an
    # SVM
    spec = build()
    with pytest.raises(ConfigurationError):
        dataclasses.replace(spec, **bad)
    with pytest.raises(ConfigurationError):
        type(spec)(**dict(dataclasses.asdict(spec), **bad))


def test_config_name_defaults_to_empty_in_code_and_json():
    cfg = config()
    built = ExperimentConfig(topology=cfg.topology, faults=cfg.faults,
                             objective=cfg.objective, noise_width=4.0,
                             horizon=400)
    assert built.name == ""
    raw = json.loads(json.dumps(BASE))
    del raw["name"]
    assert ExperimentConfig.from_mapping(raw).name == ""


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


@pytest.mark.parametrize("section, value", [
    ("objective", {"kind": "svm", "points_per_node": 0}),
    ("objective", {"kind": "svm", "points_per_node": 7}),
    ("objective", {"kind": "svm", "cost_scale": -5.0}),
    ("objective", {"kind": "svm", "cost_scale": 0.0}),
    ("objective", {"kind": "svm", "cost_scale": float("nan")}),
    ("objective", {"kind": "svm", "cost_scale": float("inf")}),
    ("objective", {"kind": "svm", "cost_scale": -float("inf")}),
    ("objective", {"kind": "quadratic", "dim": 0}),
    ("objective", {"kind": "quadratic", "dim": -1}),
    ("topology", {"kind": "random", "n": 4, "edge_prob": 0.0}),
    ("topology", {"kind": "random", "n": 4, "edge_prob": 1.5}),
    ("master_seed", -1),
    ("master_seed", 2 ** 64),
    ("noise_width", float("nan")),
    ("noise_width", float("inf")),
    ("noise_width", -float("inf")),
], ids=["no-points", "odd-points", "negative-cost", "zero-cost", "nan-cost",
        "inf-cost", "minus-inf-cost", "zero-dim", "negative-dim",
        "edge-prob-0", "edge-prob-above-1", "negative-seed", "seed-2**64",
        "nan-noise", "inf-noise", "minus-inf-noise"])
def test_config_rejects_out_of_range_section_values(section, value):
    # these failed with a bare ZeroDivisionError, failed in build_problem
    # after creating the output directory, ran on a hinge term of negative
    # weight, drew 10,000 random graphs before giving up, failed with a
    # bare ValueError when the first stream was opened, or (non-finite
    # noise widths and cost scales) failed mid-run on a non-finite gradient
    where = section
    if isinstance(value, dict):
        where += r"\." + next(k for k in value if k not in ("kind", "n"))
    with pytest.raises(ConfigurationError, match=rf"^{where}: "):
        config(**{section: value})


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


@pytest.mark.parametrize("batches", [1, 2, 3, 10, 11])
def test_batch_median_equals_numpy_median_bit_for_bit(batches):
    rng = np.random.default_rng(batches)
    values = rng.standard_normal((batches, 9))
    values[:, 1] = 0.5                              # all tied
    values[:, 2] = np.round(values[:, 2])           # some tied
    values[0, 3] = np.nan
    values[-1, 4] = -np.nan                         # sign bit set
    values[:, 5] = np.inf
    values[0, 6], values[-1, 6] = np.inf, -np.inf
    values[:, 7] = rng.choice([0.0, -0.0], batches)
    values[batches // 2, 8] = np.nan
    with np.errstate(invalid="ignore"):      # inf + -inf at two batches
        want = np.median(values, axis=0)
        got = batch_median(values)
        columns = [(batch_median(c), np.median(c)) for c in values.T]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for med, ref in columns:
        assert np.float64(med).view(np.int64) == np.float64(ref).view(np.int64)


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


@pytest.mark.parametrize("runs, horizon, batch", [
    (20, 1000, 10), (50, 1000, 10), (40, 1000, 20)])
def test_reduced_metrics_do_not_depend_on_memory_order(runs, horizon, batch):
    rng = np.random.default_rng(runs)
    e_dist = rng.random((runs, horizon + 1)) * 10.0 ** rng.integers(
        -6, 3, (runs, 1))
    e_c = rng.random((runs, horizon + 1))
    in_c = reduce_metrics(e_dist, e_c, batch)
    in_f = reduce_metrics(np.asfortranarray(e_dist), np.asfortranarray(e_c),
                          batch)
    for f in dataclasses.fields(in_c):
        assert np.array_equal(getattr(in_f, f.name), getattr(in_c, f.name)), \
            f.name


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
    write_csv(path, "k,E_dist,E_c", np.arange(size), cols[0], cols[1],
              held=(2,))
    assert path.read_text() == reference_raw(cols[0], cols[1])
    series = harness.MetricSeries(
        (np.arange(size) * 100 + 100).astype(k_dtype), *cols[:6])
    write_csv(path, "k,E_dist,E_c,E_dist_std,E_c_std", series.k,
              series.e_dist, series.e_c, series.e_dist_std, series.e_c_std)
    assert path.read_text() == reference_errors(series)
    write_csv(path, "k,k_E_dist,k_E_c", series.k, series.k_e_dist,
              series.k_e_c)
    assert path.read_text() == reference_k_errors(series)
    empty = np.empty(0)
    write_csv(path, "k,E_dist,E_c", np.arange(0), empty, empty, held=(2,))
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


def test_manifest_echoes_the_config_with_every_default(tmp_path):
    raw = {"topology": {"kind": "random", "n": 3},
           "faults": {"max_wake_gap": 1, "max_consecutive_losses": 0,
                      "max_transmission_delay": 1},
           "objective": {"kind": "quadratic"},
           "noise_width": 4, "horizon": 100, "runs": 2, "batch_size": 1,
           "ratio": {"sizes": [3], "checkpoints": [100]}}
    run_experiment(ExperimentConfig.from_mapping(raw), tmp_path,
                   persist_raw=False)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"] == {
        "name": "",
        "topology": {"kind": "random", "n": 3, "edge_prob": 0.5},
        "faults": {"max_wake_gap": 1, "max_consecutive_losses": 0,
                   "max_transmission_delay": 1, "wake_prob": 1.0,
                   "loss_prob": 0.0},
        "objective": {"kind": "quadratic", "dim": 2},
        "noise_width": 4.0, "horizon": 100, "runs": 2, "batch_size": 1,
        "master_seed": 0, "step_offset": 0,
        "ratio": {"sizes": [3], "checkpoints": [100]}}
    assert isinstance(manifest["config"]["noise_width"], float)


def test_experiment_series_matches_raw_files(tiny_run):
    cfg, outdir, _ = tiny_run
    manifest = json.loads((outdir / "manifest.json").read_text())
    # every published number is recomputable from the raw files alone
    raws = [read_raw(outdir / rel) for rel in manifest["raw_files"]]
    series = reduce_metrics(np.stack([e_dist for e_dist, _ in raws]),
                            np.stack([e_c for _, e_c in raws]),
                            cfg.batch_size)
    assert (outdir / "errors.csv").read_text() == reference_errors(series)
    assert (outdir / "k_errors.csv").read_text() == \
        reference_k_errors(series)


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


def test_failed_build_writes_nothing(tmp_path, monkeypatch):
    # a solver failure left an empty output directory without a manifest
    def fail(objective):
        raise ReferenceSolverError("no certificate")

    monkeypatch.setattr(harness, "solve_reference_optimum", fail)
    cfg = config(objective={"kind": "svm", "points_per_node": 20},
                 horizon=100, runs=2, batch_size=1)
    outdir = tmp_path / "svm"
    with pytest.raises(ReferenceSolverError, match="no certificate"):
        run_experiment(cfg, outdir)
    assert not outdir.exists()


def svm_experiment(tmp_path):
    cfg = config(objective={"kind": "svm", "points_per_node": 6},
                 horizon=100, runs=1, batch_size=1)
    return run_experiment(cfg, tmp_path / "svm")


def test_svm_dataset_round_trip(tmp_path):
    result = svm_experiment(tmp_path)
    feats, labs = result.problem.dataset
    path = result.outdir / "dataset.csv"
    assert path.read_text().splitlines()[0] == "node,feature1,feature2,label"
    body = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(body[:, 0], np.repeat(np.arange(3), labs.shape[1]))
    assert np.array_equal(body[:, 1:3], feats.reshape(-1, 2))
    assert np.array_equal(body[:, 3], labs.reshape(-1))


def test_svm_dataset_bytes_match_a_csv_writer(tmp_path, monkeypatch):
    real_build = harness.build_problem

    def build(cfg):
        # values whose text is easy to get wrong, in the written copy only
        problem = real_build(cfg)
        feats, labs = problem.dataset
        feats = feats.copy()
        feats[0, 0, 0], feats[0, 1, 1], feats[1, 2, 0] = -0.0, 1e-300, 1e22
        return dataclasses.replace(problem, dataset=(feats, labs))

    monkeypatch.setattr(harness, "build_problem", build)
    result = svm_experiment(tmp_path)
    feats, labs = result.problem.dataset
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["node", "feature1", "feature2", "label"])
        for i in range(feats.shape[0]):
            for j in range(feats.shape[1]):
                w.writerow([i, format(feats[i, j, 0], ".17g"),
                            format(feats[i, j, 1], ".17g"),
                            int(labs[i, j])])
    assert ((result.outdir / "dataset.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


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


def per_update_baseline(problem, horizon, master_seed, runs, update_gap,
                        step_offset):
    """The baseline as one noise mapping, step size and error per update,
    holding the error between updates."""
    obj, z_star = problem.objective, problem.z_star
    update_slots = np.arange(update_gap, horizon + 1, update_gap)
    e_c = np.empty((len(runs), horizon + 1))
    x = np.ones((len(runs), obj.dim))
    e_c[:, 0] = np.sum((x - z_star) ** 2, axis=1)
    draws = np.empty((len(runs), len(update_slots), obj.dim))
    for b, run in enumerate(runs):
        g = stream(master_seed, run, Role.BASELINE_NOISE, 0)
        draws[b] = g.random((len(update_slots), obj.dim))
    prev = 0
    for j, k in enumerate(update_slots):
        eps = problem.baseline_noise.from_uniforms(draws[:, j, :])
        grad = obj.batch_total_gradient(x) + eps
        alpha = update_gap / (obj.mu_total * (k + step_offset))
        x = x - alpha * grad
        e_c[:, prev + 1:k] = e_c[:, prev][:, None]
        e_c[:, k] = np.sum((x - z_star) ** 2, axis=1)
        prev = k
    e_c[:, prev + 1:] = e_c[:, prev][:, None]
    return e_c


@pytest.fixture(scope="module")
def baseline_problems():
    svm = config(topology={"kind": "cycle", "n": 4, "bidirectional": True},
                 objective={"kind": "svm", "points_per_node": 10})
    return {"quadratic": build_problem(config()), "svm": build_problem(svm)}


@pytest.mark.parametrize("horizon, gap", [(400, 1), (400, 3), (403, 7),
                                          (5, 7)])
@pytest.mark.parametrize("kind", ["quadratic", "svm"])
def test_baseline_matches_the_per_update_loop(baseline_problems, kind,
                                              horizon, gap):
    problem = baseline_problems[kind]
    runs = range(2, 7)
    got = centralized_baseline(problem, horizon, 77, runs, gap, 5)
    want = per_update_baseline(problem, horizon, 77, runs, gap, 5)
    assert got.shape == (len(runs), horizon + 1)
    assert np.array_equal(got, want)
    # the aggregation's sums depend on memory order; keep the loop's
    assert got.flags.c_contiguous


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


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_cli_rejects_an_out_of_range_seed_before_writing(seed, tmp_path,
                                                         capsys):
    out = tmp_path / "out"
    assert cli_main(["rasgp", "--config",
                     str(CONFIGS / "quad_async_cycle10.json"), "--seed", seed,
                     "--out", str(out)]) == 2
    assert "master_seed: must be in [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dim", [0, -1])
def test_cli_rejects_a_dimension_below_one_before_writing(dim, tmp_path,
                                                          capsys):
    # these exited 2 with "noise dimension must be >= 1" (dim 0) or 1 with
    # a numpy traceback (dim -1), after creating the output directory
    raw = json.loads((CONFIGS / "quad_async_cycle10.json").read_text())
    raw["objective"]["dim"] = dim
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli_main(["rasgp", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
    assert "objective.dim: must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config_name, section, key, value", [
    ("quad_async_cycle10.json", None, "noise_width", float("nan")),
    ("quad_async_cycle10.json", None, "noise_width", float("inf")),
    ("svm_sync_cycle50.json", "objective", "cost_scale", float("inf")),
], ids=["nan-noise", "inf-noise", "inf-cost"])
def test_cli_rejects_a_non_finite_value_before_writing(
        config_name, section, key, value, tmp_path, capsys):
    # these exited 1 on a non-finite gradient, after writing a failed
    # manifest or an empty output directory; Python's json writes and
    # reads NaN and Infinity
    raw = json.loads((CONFIGS / config_name).read_text())
    (raw[section] if section else raw)[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli_main(["rasgp", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
    assert f"{key}: must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_a_horizon_shorter_than_a_window_before_writing(
        tmp_path, capsys):
    cfg_path = CONFIGS / "quad_async_cycle10.json"
    out = tmp_path / "out"
    assert cli_main(["rasgp", "--config", str(cfg_path), "--out", str(out),
                     "--horizon", "50", "--runs", "2"]) == 2
    assert "horizon 50 shorter than one aggregation window" in \
        capsys.readouterr().err
    assert not out.exists()
    # averaging and the audit campaign publish no windowed series
    for command in ("raps", "verify"):
        assert cli_main([command, "--config", str(cfg_path), "--out",
                         str(tmp_path / command), "--horizon", "50",
                         "--runs", "2"]) == 0


@pytest.mark.parametrize("command", ["raps", "rasgp"])
def test_cli_verify_states_audited_span(command, tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(BASE, runs=2, batch_size=1)))
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(cfg_path), "--out", str(out),
                     "--horizon", "1200", "--verify"]) == 0
    first = (out / "verify.txt").read_text().splitlines()[0]
    assert first == "audited slots 0-1199 of 1200"
    assert first in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("horizon", [None, "1200"])
def test_cli_raps_verify_audits_the_recorded_run(horizon, tmp_path,
                                                 monkeypatch):
    """One simulation of run 0; verify.txt is what an independent
    ``verify_run`` over the whole horizon reports."""
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
    topo = cfg.topology.build(cfg.master_seed)
    x0 = cli._averaging_x0(cfg, topo.n, 0)
    report = audit.verify_run(topo, cfg.faults, x0, K, cfg.master_seed)
    expect = f"audited slots 0-{K - 1} of {K}\n" + report.to_text()
    assert (tmp_path / "verify.txt").read_text() == expect


def test_cli_rasgp_verify_audits_run_0_of_the_experiment(tmp_path,
                                                         monkeypatch):
    """One extra simulation, of run 0 over the whole horizon, with the
    experiment's own problem and step sizes: the audited trace's error
    series is the experiment's run-0 series, bit for bit."""
    from pushsim import cli, engine
    calls, results, audited = [], [], []

    def counted(*args, **kwargs):
        calls.append((kwargs["runs"], args[3], kwargs["record_trace"]))
        return real_protocol(*args, **kwargs)

    def experiment(*args, **kwargs):
        results.append(real_experiment(*args, **kwargs))
        return results[-1]

    def audit(trace):
        audited.append(trace)
        return real_audit(trace)

    real_protocol, real_experiment = engine.run_protocol, cli.run_experiment
    real_audit = cli.audit_trace
    monkeypatch.setattr(engine, "run_protocol", counted)
    monkeypatch.setattr(cli, "run_experiment", experiment)
    monkeypatch.setattr(cli, "audit_trace", audit)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(BASE, runs=3, batch_size=3)))
    assert cli_main(["rasgp", "--config", str(cfg_path), "--out",
                     str(tmp_path / "out"), "--horizon", "1200",
                     "--verify"]) == 0
    assert calls == [((0, 1, 2), 1200, False), ((0,), 1200, True)]
    (trace,), (result,) = audited, results
    assert trace.schedule.horizon == 1200
    diff = trace.z.sum(axis=1) / trace.z.shape[1] - result.problem.z_star
    assert np.array_equal(np.sum(diff * diff, axis=1), result.e_dist_raw[0])


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


def test_raps_trace_round_trip(tmp_path):
    from pushsim import cli

    topo = build_cycle(3, bidirectional=True)
    x0 = np.array([[1.0, -2.0], [0.5, 3.0], [-1.0, 0.25]])
    trace = run_protocol(topo, FaultBounds(3, 3, 3, wake_prob=0.5,
                                           loss_prob=0.3),
                         x0, 40, 4, record_trace=True).trace
    path = tmp_path / "raps_trace.csv"
    cli._write_state_trace(path, trace)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["slot", "node", "kappa", "y", "phi_y", "x0", "x1",
                       "z0", "z1", "phi_x0", "phi_x1"]
    table = np.array(rows[1:], dtype=float)
    assert table.shape == (41 * 3, 11)        # one row per (slot, node)
    col = {name: table[:, j].reshape(41, 3) for j, name in
           enumerate(rows[0])}
    assert np.array_equal(col["slot"], np.repeat(np.arange(41)[:, None], 3,
                                                 axis=1))
    assert np.array_equal(col["node"], np.tile(np.arange(3), (41, 1)))
    assert np.array_equal(col["kappa"], trace.kappa)
    for name in ("y", "phi_y"):
        assert np.array_equal(col[name], getattr(trace, name)), name
    for name in ("x", "z", "phi_x"):
        got = np.stack([col[f"{name}{c}"] for c in range(2)], axis=-1)
        assert np.array_equal(got, getattr(trace, name)), name


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


# SHA-256 of output files as version 0.6.0 writes them. Every digest but
# dataset.csv's is also 0.5.0's: 0.6.0 moved only that file's line ends,
# from CRLF to LF. A change that moves one of these bits bumps __version__
# and updates the digest. A dict in argv is a config the test writes.
PINNED_OUTPUTS = [
    (["raps", "--config", "verify_faulty_small.json", "--horizon", "200"], {
        "raps_trace.csv": "90ac32a146770a931741cf52f0b2b0ad"
                          "4ec0c676e975b44ca5457e1ed75e6db4",
        "consensus.csv": "025753caac3ee86c997afba195c2321d"
                         "0ad3cd262e03e20121dec1bae6f3c919"}),
    (["rasgp", "--config", "quad_async_cycle10.json", "--runs", "2",
      "--horizon", "200"], {
        "run_0000.csv": "4b5c3e903b3921a5f9d6d8696453c61d"
                        "613ff5dc544a63002ce21861891f9686",
        "errors.csv": "f470c1ffbf526d75239c494202565036"
                      "872cbcba2a2431c9a94b2b204255d3fc",
        "k_errors.csv": "bea1d362207bec1649624edcbf8b0073"
                        "7e5f7cdd4c44622383bf24c6814dd74f"}),
    (["rasgp", "--config", "svm_sync_cycle50.json", "--runs", "2",
      "--horizon", "200"], {
        "run_0000.csv": "ba4ccbdf9aa45836d20af774fedd32c4"
                        "764e252c6417eed131d4bc11d039007b",
        "errors.csv": "4ccddfc5d5d3dc2c3f04156e89aa8981"
                      "9caf26b80e5d899b9613894d929ddc0f",
        "k_errors.csv": "368d4e9de33a6dc6271ea8fd7019b426"
                        "6daea17e31cd189151523144ca8ee9fe",
        "dataset.csv": "26cbc7db825d4ead19d4f24637964b0a"
                       "2c7b47d0063262d09a9f7de08d5040ae",
        "optimum.csv": "bc7d25dae46102c313adc846ec2f30cb"
                       "34c2716476c93fc07b5810799c3ac57b"}),
    (["ratio", "--config", dict(BASE, horizon=200, runs=4, ratio={
        "sizes": [3, 5], "checkpoints": [100, 200]})], {
        "ratio.csv": "bb53c0df677a87c4145540a8616a0960"
                     "5bb83cdbf890995fc269a48795b72199"}),
]


@pytest.mark.parametrize("argv, digests", PINNED_OUTPUTS,
                         ids=["raps", "rasgp", "rasgp-svm-sync", "ratio"])
def test_cli_outputs_keep_their_bits(argv, digests, tmp_path):
    def resolve(arg):
        if isinstance(arg, dict):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(arg))
            return str(path)
        return str(CONFIGS / arg) if arg.endswith(".json") else arg

    out = tmp_path / "out"
    assert cli_main([resolve(a) for a in argv] + ["--out", str(out)]) == 0
    for name, digest in digests.items():
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == digest, name


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
