"""End-to-end acceptance gate: eleven criteria, one printed verdict each.

Each test computes its criterion, prints a single "An PASS/FAIL: ..." line
(visible with -s, and always shown on failure), then asserts. The two
heavyweight experiments (A6, A8) dominate the wall time; the whole module
takes on the order of ten minutes on one core.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pushsim import pushsum
from pushsim.audit import (
    build_delivery_indicators,
    contraction_bound,
    cross_validate,
    envelope_check,
    run_linear_audit,
    tracking_bound_series,
    verify_run,
)
from pushsim.engine import run_protocol
from pushsim.faultnet import (
    FaultBounds,
    check_window_connectivity,
    realize_schedule,
)
from pushsim.graph import build_cycle, build_random_strongly_connected
from pushsim.harness import (
    ExperimentConfig,
    build_problem,
    ratio_study,
    replay,
    run_experiment,
)
from pushsim.objectives import (
    NoiseModel,
    SvmObjective,
    generate_quadratic,
    generate_svm_dataset,
    smoothed_hinge,
    smoothed_hinge_derivative,
)
from pushsim.optimizer import StepSizeLedger, run_gradient_push
from pushsim.pushsum import Injection, run_averaging
from pushsim.rng import Role, stream

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Shared campaign: 5 sizes x 4 seeds under the reference fault regime.
CAMPAIGN_BOUNDS = FaultBounds(3, 3, 3, wake_prob=0.5, loss_prob=0.3)
CAMPAIGN_SEEDS = (11, 19, 23, 31)
CAMPAIGN_HORIZON = 500


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{tag}: {detail}"


def _instance(n: int, seed: int):
    topo = build_random_strongly_connected(
        n, 0.5, stream(seed, role=Role.TOPOLOGY))
    x0 = stream(seed, role=Role.INIT).uniform(-5.0, 5.0, size=(n, 2))
    return topo, x0


def _residual_failures(report, pairs):
    named = {c.name: c for c in report.checks}
    return [(name, named[name].max_residual, tol)
            for name, tol in pairs if named[name].max_residual > tol]


@pytest.fixture(scope="module")
def campaign():
    t0 = time.perf_counter()
    instances = []
    for n in range(2, 7):
        for seed in CAMPAIGN_SEEDS:
            topo, x0 = _instance(n, seed)
            report = verify_run(topo, CAMPAIGN_BOUNDS, x0,
                                CAMPAIGN_HORIZON, seed)
            instances.append((n, seed, x0, report))
    return instances, time.perf_counter() - t0


def test_a1_simulator_matches_linear_audit(campaign):
    instances, elapsed = campaign
    bad = []
    worst = 0.0
    for n, seed, x0, report in instances:
        tol = 1e-9 * (1.0 + np.abs(x0).sum())
        fails = _residual_failures(report, [("chi-real-equals-x", tol),
                                            ("psi-real-equals-y", tol)])
        bad.extend((n, seed) + f for f in fails)
        named = {c.name: c for c in report.checks}
        worst = max(worst, named["chi-real-equals-x"].max_residual / tol,
                    named["psi-real-equals-y"].max_residual / tol)
    ok = not bad and elapsed <= 60.0
    _report("A1", ok,
            f"20 instances match the float64 sparse-matrix rebuild "
            f"(worst residual at {worst:.1e} of tolerance) in {elapsed:.1f}s")


def test_a2_conservation_and_matrix_structure(campaign):
    instances, _ = campaign
    bad = []
    for n, seed, x0, report in instances:
        scaled = 1e-9 * (1.0 + np.abs(x0).sum())
        fails = _residual_failures(report, [
            ("mass-conservation", scaled),
            ("weight-conservation", 1e-9),
            ("matrix-column-sums", 1e-15),
            ("matrix-entry-floor", 0.0),
            ("matrix-real-diagonal-positive", 0.0),
        ])
        bad.extend((n, seed) + f for f in fails)
    _report("A2", not bad,
            f"mass/weight conserved and every slot matrix column-stochastic "
            f"with floored entries on all 20 instances {bad or ''}")


def test_a3_ledger_identities_and_seeded_corruption(campaign, monkeypatch):
    instances, _ = campaign
    bad = []
    for n, seed, x0, report in instances:
        scaled = 1e-9 * (1.0 + np.abs(x0).sum())
        fails = _residual_failures(report, [
            ("rho-increment-equals-level1", scaled),
            ("rho-y-increment-equals-level1", scaled),
            ("excess-plus-transit-plus-absorbed", scaled),
        ])
        bad.extend((n, seed) + f for f in fails)

    # Corrupt one receive-ledger update in a rerun of a campaign instance;
    # the audit must flag it, first at exactly the corrupted slot.
    topo, x0 = _instance(5, 19)
    sched = realize_schedule(topo, CAMPAIGN_BOUNDS, CAMPAIGN_HORIZON, 19, 0)
    level = build_delivery_indicators(sched, 0).accepted_level
    arc = next(a for a in range(topo.m) if np.count_nonzero(level[:, a]) > 3)
    send = np.flatnonzero(level[:, arc])[3]
    target = int(send + level[send, arc])
    real = pushsum.process_inbox

    def skip_rho_update(state, messages, k):
        # the receiver absorbs the increment, its arc ledger does not move
        before = (state.rho_x.get(arc), state.rho_y.get(arc))
        real(state, messages, k)
        if k == target and arc in state.rho_x:
            state.rho_x[arc], state.rho_y[arc] = before

    monkeypatch.setattr(pushsum, "process_inbox", skip_rho_update)
    ref = pushsum.reference_averaging_run(topo, CAMPAIGN_BOUNDS, x0,
                                          CAMPAIGN_HORIZON, 19)
    audit = run_linear_audit(sched, x0, 0)
    mutant = cross_validate(ref, audit, x0)
    flagged = [c for c in mutant.checks if c.first_bad_slot is not None]
    caught = bool(flagged) and min(
        c.first_bad_slot for c in flagged) == target
    ok = not bad and caught
    _report("A3", ok,
            f"running-sum identities hold on all instances; corrupted "
            f"ledger caught at slot {target} by "
            f"{len(flagged)} checks")


ENVELOPE_FAULTS = (
    FaultBounds(1, 0, 1),
    FaultBounds(1, 1, 1, loss_prob=0.3),
    FaultBounds(2, 0, 1, wake_prob=0.5),
    FaultBounds(1, 0, 2),
)


def test_a4_contraction_envelope_and_decay_rate():
    violations = []
    for n in (2, 3):
        topo = build_cycle(n, bidirectional=True)
        x0 = stream(101, role=Role.INIT).uniform(-4.0, 4.0, size=(n, 1))
        for bounds in ENVELOPE_FAULTS:
            assert bounds.max_receipt_gap <= 4
            bound = contraction_bound(n, bounds.max_receipt_gap)
            res = run_averaging(topo, bounds, x0, 2000, 101,
                                record_trace=True)
            good, first = envelope_check(res.trace.z, x0, bound)
            if not good:
                violations.append((n, bounds.max_receipt_gap, first))

    # Geometric decay fit on lossless unidirectional rings, where the
    # error stays above the noise floor for the whole horizon.
    fits = []
    for bounds in (FaultBounds(1, 0, 2), FaultBounds(1, 0, 1),
                   FaultBounds(2, 0, 1, wake_prob=0.5)):
        topo = build_cycle(10)
        x0 = stream(7, role=Role.INIT).uniform(-4.0, 4.0, size=(10, 1))
        res = run_averaging(topo, bounds, x0, 2000, 7, record_trace=True)
        err = np.abs(res.trace.z[:, :, 0] - x0.mean()).max(axis=1)
        ks = np.arange(100, 2001)
        logs = np.log(err[100:])
        slope, intercept = np.polyfit(ks, logs, 1)
        resid = logs - (slope * ks + intercept)
        r2 = 1.0 - (resid ** 2).sum() / ((logs - logs.mean()) ** 2).sum()
        fits.append((r2, slope))
    ok = (not violations
          and all(r2 >= 0.95 and slope < 0.0 for r2, slope in fits))
    _report("A4", ok,
            f"envelope held on all 8 runs (violations: {violations or 'none'});"
            f" decay fits R^2 = {', '.join(f'{r2:.4f}' for r2, _ in fits)}")


def test_a5_perturbation_tracking():
    # Decaying injection (1/k into one coordinate of one node) on a 5-node
    # bidirectional ring: estimates must track the moving true mean.
    topo = build_cycle(5, bidirectional=True)
    x0 = stream(13, role=Role.INIT).uniform(-2.0, 2.0, size=(5, 2))

    def drift(k):
        if k == 0:
            return None
        step = np.zeros((5, 2))
        step[0, 0] = 1.0 / k
        return step

    res = run_protocol(topo, FaultBounds(1, 0, 1), x0, 5000, 13,
                       update=Injection(drift), record_trace=True)
    final_dev = float(
        np.abs(res.trace.z[-1] - res.trace.aug_mean[-1][None, :]).max())

    # Formula leg on the 2-node instance, the non-vacuous regime for the
    # tracking ceiling. The initial mass must not be dominated by the first
    # injection (size 1): a unit of mass landing on a quarter-weight node
    # moves that node's ratio estimate by four units, so the ceiling's
    # initial term needs l1(x0) > 2 to absorb the transient.
    topo2 = build_cycle(2)
    x02 = np.array([[3.0], [-1.0]])

    def drift2(k):
        if k == 0:
            return None
        step = np.zeros((2, 1))
        step[0, 0] = 1.0 / k
        return step

    res2 = run_protocol(topo2, FaultBounds(1, 0, 1), x02, 5000, 13,
                        update=Injection(drift2), record_trace=True)
    series = tracking_bound_series(contraction_bound(2, 2), x02,
                                   res2.trace.applied)
    dev = np.abs(res2.trace.z - res2.trace.aug_mean[:, None, :]).max(axis=1)
    below = bool(np.all(dev <= series))
    ok = final_dev < 1e-2 and below
    _report("A5", ok,
            f"final tracking gap {final_dev:.2e} < 1e-2; per-slot ceiling "
            f"respected on the 2-node run: {below}")


def test_a6_steady_state_noise_floor():
    t0 = time.perf_counter()
    cfg = ExperimentConfig.from_file(CONFIGS / "quad_async_cycle10.json")
    problem = build_problem(cfg)
    n = problem.topology.n
    ledger = StepSizeLedger(numerator=float(n),
                            mu=problem.objective.mu_total,
                            horizon=cfg.horizon, k0=cfg.step_offset)
    res = run_gradient_push(problem.topology, cfg.faults, problem.objective,
                            problem.noise, ledger, cfg.horizon,
                            cfg.master_seed, runs=range(cfg.runs),
                            z_star=problem.z_star)
    mean_err = res.e_dist.mean(axis=0)
    ks = np.arange(cfg.horizon + 1, dtype=float)
    tail = ks >= 0.8 * cfg.horizon
    measured = float((ks[tail] * mean_err[tail]).mean())
    sigma_sq_sum = n * problem.noise.second_moment
    target = (cfg.faults.max_wake_gap * sigma_sq_sum
              / problem.objective.mu_total ** 2)
    ratio = measured / target
    elapsed = time.perf_counter() - t0
    ok = 0.65 <= ratio <= 1.35 and elapsed <= 1200.0
    _report("A6", ok,
            f"tail mean of k*E is {measured:.4f} vs predicted floor "
            f"{target:.4f} (ratio {ratio:.3f}) in {elapsed:.0f}s")


def test_a7_network_scaling_ratio():
    template = ExperimentConfig.from_file(CONFIGS / "ratio_cycles.json")
    sizes, checkpoints = template.ratio.sizes, template.ratio.checkpoints
    rows = ratio_study(template, sizes, checkpoints)
    table = {(r.n, r.k): r for r in rows}
    final_bad = [n for n in (5, 10)
                 if not 0.5 <= table[(n, checkpoints[-1])].ratio <= 2.0]
    drops = []
    for n in sizes:
        seq = [table[(n, k)] for k in checkpoints]
        for a, b in zip(seq, seq[1:]):
            if b.ratio < a.ratio - max(a.ratio_std, b.ratio_std):
                drops.append((n, a.k, b.k))
    finals = {n: table[(n, checkpoints[-1])].ratio for n in sizes}
    ok = not final_bad and not drops
    _report("A7", ok,
            f"final ratios {({k: round(v, 3) for k, v in finals.items()})} "
            f"with n=5,10 inside [0.5, 2.0]; no band-exceeding decrease "
            f"across checkpoints {list(checkpoints)}")


def test_a8_svm_error_decay_shape(tmp_path):
    cfg = ExperimentConfig.from_file(CONFIGS / "svm_sync_cycle50.json")
    res = run_experiment(cfg, tmp_path / "svm", persist_raw=False)
    e = np.asarray(res.series.e_dist)
    assert e.size == 200
    blocks = e.reshape(10, 20).mean(axis=1)
    monotone = bool(np.all(np.diff(blocks[1:]) <= 0.0))
    ks = np.asarray(res.series.k, dtype=float)
    sel = ks >= 0.9 * cfg.horizon
    tail = np.asarray(res.series.k_e_dist)[sel]
    slope = np.polyfit(ks[sel], tail, 1)[0]
    drift = float(slope * (ks[sel][-1] - ks[sel][0]) / tail.mean())

    # The faulty async counterpart config ships alongside the synchronous
    # one; a shortened replica must show the same qualitative decay.
    async_cfg = replace(
        ExperimentConfig.from_file(CONFIGS / "svm_async_cycle50.json"),
        horizon=5000, runs=10)
    problem = build_problem(async_cfg)
    ledger = StepSizeLedger(numerator=float(async_cfg.topology.n),
                            mu=problem.objective.mu_total,
                            horizon=async_cfg.horizon,
                            k0=async_cfg.step_offset)
    short = run_gradient_push(problem.topology, async_cfg.faults,
                              problem.objective, problem.noise, ledger,
                              async_cfg.horizon, async_cfg.master_seed,
                              runs=range(async_cfg.runs),
                              z_star=problem.z_star)
    curve = short.e_dist.mean(axis=0)
    async_decays = curve[-1] < 0.2 * curve[500]

    ok = monotone and abs(drift) <= 0.20 and async_decays
    _report("A8", ok,
            f"post-warmup block means non-increasing: {monotone}; "
            f"terminal-decile k*E drift {drift:+.3f} (limit 0.20); "
            f"async variant decays {curve[500] / curve[-1]:.0f}x over its "
            f"short horizon")


def test_a9_gradient_suite_budget():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)

    assert smoothed_hinge(np.array(-2.0)) == 2.5
    assert smoothed_hinge(np.array(0.0)) == 0.5
    assert smoothed_hinge(np.array(0.5)) == 0.125
    assert smoothed_hinge(np.array(1.0)) == 0.0
    assert smoothed_hinge_derivative(np.array(0.0)) == -1.0
    assert smoothed_hinge_derivative(np.array(0.5)) == -0.5

    quad = generate_quadratic(6, 3, 5)
    feats, labels = generate_svm_dataset(4, 5)
    svm = SvmObjective(feats, labels)
    worst_fd = 0.0
    convex_ok = True
    lipschitz_ok = True
    for obj in (quad, svm):
        lips = obj.lipschitz_local
        for _ in range(3):
            z = rng.uniform(-1.5, 1.5, size=obj.dim)
            w = rng.uniform(-1.5, 1.5, size=obj.dim)
            for i in range(obj.n_agents):
                fd = np.zeros(obj.dim)
                for c in range(obj.dim):
                    e = np.zeros(obj.dim)
                    e[c] = 1e-6
                    fd[c] = (obj.local_value(i, z + e)
                             - obj.local_value(i, z - e)) / 2e-6
                g = obj.local_gradient(i, z)
                worst_fd = max(worst_fd, float(
                    (np.abs(fd - g) / (1.0 + np.abs(g))).max()))
                if (np.linalg.norm(g - obj.local_gradient(i, w))
                        > lips[i] * np.linalg.norm(z - w) + 1e-12):
                    lipschitz_ok = False
            gap = (obj.batch_total_gradient(z[None, :])[0]
                   - obj.batch_total_gradient(w[None, :])[0])
            if (gap @ (z - w)
                    < obj.mu_total * np.linalg.norm(z - w) ** 2 - 1e-12):
                convex_ok = False
    grads_ok = worst_fd <= 1e-5

    noise = NoiseModel(2.0, 2)
    draws = noise.from_uniforms(rng.uniform(size=(20000, 2)))
    moment = float((draws ** 2).sum(axis=1).mean())
    noise_ok = (float(np.abs(draws).max()) <= noise.norm_bound
                and abs(moment - noise.second_moment)
                <= 0.05 * noise.second_moment)

    elapsed = time.perf_counter() - t0
    ok = (grads_ok and convex_ok and lipschitz_ok and noise_ok
          and elapsed <= 10.0)
    _report("A9", ok,
            f"gradients match finite differences (worst rel. gap "
            f"{worst_fd:.1e}), strong-convexity and Lipschitz witnesses "
            f"hold, noise moments in range, in {elapsed:.2f}s (limit 10s)")


def test_a10_replay_byte_identical(tmp_path):
    cfg = ExperimentConfig.from_file(CONFIGS / "verify_faulty_small.json")
    out = tmp_path / "small"
    run_experiment(cfg, out, persist_raw=True)
    ok = replay(out) is True
    _report("A10", ok, "replay regenerated byte-identical artifacts")


def test_a11_identities_under_arc_outage_mask():
    # Deterministic rotating outages: arc group k mod 3 is the only one up
    # at slot k, so every 3-slot window unions to the full (strongly
    # connected) arc set. Loss randomness stays off; wake stays random.
    bounds = FaultBounds(3, 0, 3, wake_prob=0.5)
    bad = []
    for seed in (43, 47):
        topo, x0 = _instance(5, seed)
        rows = CAMPAIGN_HORIZON + bounds.max_effective_delay + 1
        mask = (np.arange(topo.m)[None, :] % 3
                == np.arange(rows)[:, None] % 3)
        check_window_connectivity(topo, mask, CAMPAIGN_HORIZON, 3)
        report = verify_run(topo, bounds, x0, CAMPAIGN_HORIZON, seed,
                            mask=mask)
        scaled = 1e-9 * (1.0 + np.abs(x0).sum())
        bad.extend(_residual_failures(report, [
            ("chi-real-equals-x", scaled),
            ("psi-real-equals-y", scaled),
            ("mass-conservation", scaled),
            ("weight-conservation", 1e-9),
            ("matrix-column-sums", 1e-15),
            ("matrix-entry-floor", 0.0),
            ("matrix-real-diagonal-positive", 0.0),
            ("rho-increment-equals-level1", scaled),
            ("rho-y-increment-equals-level1", scaled),
            ("excess-plus-transit-plus-absorbed", scaled),
        ]))
    _report("A11", not bad,
            f"simulator/audit/ledger identities hold under 3-slot-window "
            f"connected arc outages on both seeds {bad or ''}")
