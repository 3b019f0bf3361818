"""Linear audit: augmented matrices, identity checks, bounds, diagnostics."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from pushsim import pushsum
from pushsim.audit import (AugmentedLayout, DeliveryIndicators,
                           _exclusion_windows, _levels_above_accepted,
                           build_delivery_indicators, build_mass_matrix,
                           contraction_bound, cross_validate, envelope_check,
                           run_linear_audit, tracking_bound_series,
                           verify_run, wbar_diagnostic,
                           window_positivity_check)
from pushsim.errors import (ConfigurationError, InconsistentScheduleError,
                            VerificationError)
from pushsim.engine import run_protocol
from pushsim.faultnet import FaultBounds, realize_schedule
from pushsim.graph import build_cycle, build_random_strongly_connected
from pushsim.harness import ExperimentConfig
from pushsim.objectives import NoiseModel, generate_quadratic
from pushsim.optimizer import (OPTIMIZER_INIT_TIMESTAMP, GradientStep,
                               StepSizeLedger, run_gradient_push)
from pushsim.pushsum import Injection, run_averaging
from pushsim.rng import Role, stream

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SYNC = FaultBounds(1, 0, 1)
ASYNC = FaultBounds(3, 3, 3, wake_prob=0.5, loss_prob=0.3)


def small_faulty_case(n=5, seed=19, horizon=300):
    topo = build_random_strongly_connected(n, 0.5,
                                           stream(seed, 0, Role.TOPOLOGY, 0))
    x0 = np.arange(float(2 * n)).reshape(n, 2)
    return topo, x0


# --------------------------------------------------------- matrix layout

def test_layout_indexing():
    topo = build_cycle(3, bidirectional=True)     # m = 6
    lay = AugmentedLayout(topo, 2)
    assert lay.size == 3 + 3 * 6
    assert lay.transit_index(0, 1) == 3
    assert lay.transit_index(5, 2) == 3 + 6 + 5
    assert lay.excess_index(0) == 3 + 2 * 6


def test_two_node_sync_matrix_entries_exact():
    # every node awake, delay 1: shares go to level-1 transit, the next
    # slot hands them to the destination; no excess is ever parked
    topo = build_cycle(2)
    sched = realize_schedule(topo, SYNC, 4, 1, 0)
    ind = build_delivery_indicators(sched, -1)
    lay = AugmentedLayout(topo, sched.bounds.max_effective_delay)
    mats = build_mass_matrix(lay, ind.wake, ind.tau)
    m0 = mats.dense(0)
    # real columns split 1/2 diagonal, 1/2 into the arc's level-1 slot
    assert m0[0, 0] == 0.5 and m0[lay.transit_index(0, 1), 0] == 0.5
    assert m0[1, 1] == 0.5 and m0[lay.transit_index(1, 1), 1] == 0.5
    assert np.allclose(m0.sum(axis=0), 1.0)
    m1 = mats.dense(1)
    # transit columns: level-1 mass lands on the receiving node
    assert m1[1, lay.transit_index(0, 1)] == 1.0
    assert m1[0, lay.transit_index(1, 1)] == 1.0


def test_mass_matrix_rejects_two_levels_per_arc():
    topo = build_cycle(2)
    lay = AugmentedLayout(topo, 3)
    wake = np.ones(2, dtype=bool)
    tau = np.zeros((2, 3), dtype=bool)
    tau[1, 0] = tau[1, 2] = True         # two simultaneous accepted levels
    with pytest.raises(InconsistentScheduleError,
                       match=r"^arc 1->0: two delivery levels in one slot$"):
        build_mass_matrix(lay, wake[None], tau[None])
    with pytest.raises(ConfigurationError,
                       match=r"tau slice shape \(2, 2\) != \(2, 3\)"):
        build_mass_matrix(lay, wake[None], tau[None, :, :2])


def test_matrix_columns_are_stochastic_under_faults():
    topo, x0 = small_faulty_case()
    sched = realize_schedule(topo, ASYNC, 120, 19, 0)
    audit = run_linear_audit(sched, x0, 0)
    floor = 1.0 / (topo.out_degree().max() + 1)
    for k in range(sched.horizon):
        dense = audit.matrices.dense(k)
        assert np.max(np.abs(dense.sum(axis=0) - 1.0)) <= 1e-15
        positive = dense[dense > 0]
        assert positive.min() >= floor - 1e-15
        assert np.all(dense.diagonal()[:topo.n] > 0)


# ------------------------------------------------- simulator cross-check

def test_cross_validation_clean_on_faulty_async_runs():
    topo, x0 = small_faulty_case()
    for run in (0, 3):
        report = verify_run(topo, ASYNC, x0, 300, 19, run=run)
        assert report.ok
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names)) and len(names) >= 15
        text = report.to_text()
        assert "ok" in text and "slot" not in text.split("ok")[0]


def skip_receive_update(monkeypatch, arc, slot):
    """Make the reference simulator skip one receive-total update: at
    `slot`, `arc`'s absorbed totals go back to their old values after the
    receiver has absorbed the increment."""
    real = pushsum.process_inbox

    def process_inbox(state, messages, k):
        before = (state.rho_x.get(arc), state.rho_y.get(arc))
        real(state, messages, k)
        if k == slot and arc in state.rho_x:
            state.rho_x[arc], state.rho_y[arc] = before

    monkeypatch.setattr(pushsum, "process_inbox", process_inbox)


def test_cross_validation_detects_skipped_receive_update(monkeypatch):
    # corrupt exactly one receive-total update and the audit must point
    # at that processing slot
    topo, x0 = small_faulty_case()
    sched = realize_schedule(topo, ASYNC, 300, 19, 0)
    level = build_delivery_indicators(sched, 0).accepted_level
    arc = next(a for a in range(topo.m) if np.count_nonzero(level[:, a]) > 3)
    send = np.flatnonzero(level[:, arc])[3]
    target = int(send + level[send, arc])
    skip_receive_update(monkeypatch, arc, target)
    ref = pushsum.reference_averaging_run(topo, ASYNC, x0, 300, 19)
    audit = run_linear_audit(sched, x0, 0)
    report = cross_validate(ref, audit, x0)
    assert not report.ok
    bad = [c for c in report.checks if c.first_bad_slot is not None]
    assert min(c.first_bad_slot for c in bad) == target
    with pytest.raises(VerificationError, match="slot"):
        report.raise_on_failure()


def test_audit_tracks_applied_optimizer_moves():
    topo = build_cycle(3, bidirectional=True)
    obj = generate_quadratic(3, 2, master_seed=4)
    led = StepSizeLedger(numerator=3.0, mu=obj.mu_total, horizon=150)
    step = GradientStep(obj, NoiseModel(0.0, 2), led, 15, runs=(0,))
    report = verify_run(topo, ASYNC, np.ones((3, 2)), 150, 15,
                        init_timestamp=OPTIMIZER_INIT_TIMESTAMP, update=step)
    assert report.ok, report.to_text()


def test_verify_run_covers_masked_arcs():
    topo = build_cycle(5, bidirectional=True)
    bounds = FaultBounds(3, 0, 3, wake_prob=0.5)
    horizon = 240
    rng = np.random.default_rng(0)
    mask = rng.random((horizon, topo.m)) < 0.7
    mask[::3] = True                       # keep every window connected
    x0 = np.linspace(0.0, 9.0, 10).reshape(5, 2)
    report = verify_run(topo, bounds, x0, horizon, 33, mask=mask)
    assert report.ok, report.to_text()


# --------------------------------------------------- contraction bounds

def test_contraction_constants_pinned_for_two_nodes():
    b = contraction_bound(2, 2)
    assert b.alpha == pytest.approx(0.0625)
    assert not b.vacuous
    assert 0.0 < float(b.lam) < 1.0
    assert float(b.lam) == pytest.approx(1.0 - 1.4901161193847656e-08)
    assert float(b.delta) == pytest.approx(1.0 + 1.1920928977282585e-07)


def test_contraction_bound_vacuous_for_larger_systems():
    assert contraction_bound(50, 17).vacuous
    assert contraction_bound(5, 8).vacuous
    with pytest.raises(ConfigurationError):
        contraction_bound(1, 2)
    with pytest.raises(ConfigurationError):
        contraction_bound(2, 1)


def test_envelope_holds_on_lossless_two_node_run():
    topo = build_cycle(2)
    x0 = np.array([[0.0], [1.0]])
    res = run_averaging(topo, SYNC, x0, 2000, 3, record_trace=True)
    bound = contraction_bound(2, FaultBounds(1, 0, 1).max_receipt_gap)
    ok, bad = envelope_check(res.trace.z, x0, bound)
    assert ok, f"first violation at slot {bad}"


def test_tracking_bound_series_shape_and_monotonicity():
    bound = contraction_bound(2, 2)
    x0 = np.array([[0.0], [1.0]])
    applied = np.zeros((100, 2, 1))
    series = tracking_bound_series(bound, x0, applied)
    assert series.shape == (101, 1)
    # with no drift the bound is the plain geometric envelope
    assert np.all(np.diff(series[1:, 0]) <= 0.0)
    lam, delta = float(bound.lam), float(bound.delta)
    assert series[50, 0] == pytest.approx(delta * lam ** 50, rel=1e-12)
    assert series[0, 0] == pytest.approx(delta, rel=1e-12)


def test_tracking_bound_accumulates_drift():
    bound = contraction_bound(2, 2)
    x0 = np.zeros((2, 1))
    applied = np.zeros((10, 2, 1))
    applied[4, 0, 0] = 0.5                  # one injected move at slot 4
    series = tracking_bound_series(bound, x0, applied)
    assert np.all(series[:5] == 0.0)
    delta = float(bound.delta)
    assert series[5, 0] == pytest.approx(delta * 0.5, rel=1e-12)
    assert series[6, 0] < series[5, 0]


# ------------------------------------------------------ window products

def test_window_positivity_depends_on_initial_timestamp():
    topo = build_cycle(2)
    sched = realize_schedule(topo, SYNC, 30, 1, 0)
    gap = FaultBounds(1, 0, 1).max_receipt_gap
    fresh = run_linear_audit(sched, np.ones((2, 1)), -1)
    ok, bad = window_positivity_check(fresh, gap)
    assert ok and bad is None
    # slot-0 sends are stale under the averaging convention, which delays
    # the very first window's mixing but no later one
    stale = run_linear_audit(sched, np.ones((2, 1)), 0)
    ok, bad = window_positivity_check(stale, gap)
    assert not ok and bad == 0


def test_window_positivity_async_case():
    topo = build_cycle(3, bidirectional=True)
    bounds = FaultBounds(3, 3, 3, wake_prob=0.6, loss_prob=0.3)
    sched = realize_schedule(topo, bounds, 150, 23, 0)
    audit = run_linear_audit(sched, np.ones((3, 1)), -1)
    ok, bad = window_positivity_check(audit, bounds.max_receipt_gap)
    assert ok, f"window starting at {bad} lost positivity"


# --------------------------------------------------------- diagnostics

def test_wbar_matches_estimates_in_sync_noiseless_runs():
    # synchronous wakes mean no pending compensated steps, so each node's
    # adjusted value is its own state and all estimates approach the bar
    topo = build_cycle(4, bidirectional=True)
    obj = generate_quadratic(4, 2, master_seed=2)
    led = StepSizeLedger(numerator=4.0, mu=obj.mu_total, horizon=12000)
    res = run_gradient_push(topo, SYNC, obj, NoiseModel(0.0, 2), led,
                            12000, 6, record_trace=True)
    series = wbar_diagnostic(res.trace, obj, led)
    dev = series.deviation.max(axis=1)
    # log-log decay of the spread between estimates and the bar
    lo = np.flatnonzero(dev[1000:] > 0)
    ks = np.arange(1000, 12001)[lo]
    slope = np.polyfit(np.log(ks), np.log(dev[ks]), 1)[0]
    assert slope <= -0.8
    assert dev[-1] < 1e-3
    # the bar itself converges to the optimizer's fixed point
    assert np.linalg.norm(series.wbar[-1] - obj.optimum()) < 1e-3


def test_wbar_consistent_under_faults():
    topo = build_cycle(3, bidirectional=True)
    obj = generate_quadratic(3, 2, master_seed=3)
    led = StepSizeLedger(numerator=3.0, mu=obj.mu_total, horizon=2000)
    res = run_gradient_push(topo, ASYNC, obj, NoiseModel(0.0, 2), led,
                            2000, 9, record_trace=True)
    series = wbar_diagnostic(res.trace, obj, led)
    assert series.deviation[-1].max() < 0.05
    assert np.linalg.norm(series.wbar[-1] - obj.optimum()) < 0.05


# ------------------------------------------- array builders vs references

def reference_mass_matrix(layout, wake_k, tau_k):
    """Entry-by-entry construction of one slot's dense matrix, the form the
    array-based build_mass_matrix must reproduce exactly."""
    topo = layout.topology
    n, m = topo.n, topo.m
    l_d = layout.max_effective_delay
    deg = topo.out_degree()
    rows, cols, vals = [], [], []

    def put(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    level_of = (tau_k * np.arange(1, l_d + 1)[None, :]).sum(axis=1)
    for i in range(n):
        if not wake_k[i]:
            put(i, i, 1.0)
            continue
        share = 1.0 / (deg[i] + 1.0)
        put(i, i, share)
        for a in np.flatnonzero(topo.src == i):
            lvl = level_of[a]
            if lvl > 0:
                put(layout.transit_index(a, int(lvl)), i, share)
            else:
                put(layout.excess_index(a), i, share)
    for a in range(m):
        put(topo.dst[a], layout.transit_index(a, 1), 1.0)
        for lvl in range(2, l_d + 1):
            put(layout.transit_index(a, lvl - 1),
                layout.transit_index(a, lvl), 1.0)
        lvl = level_of[a]
        if lvl > 0:
            put(layout.transit_index(a, int(lvl)),
                layout.excess_index(a), 1.0)
        else:
            put(layout.excess_index(a), layout.excess_index(a), 1.0)
    size = layout.size
    out = np.zeros((size, size))
    np.add.at(out, (rows, cols), vals)
    return out


def reference_levels_above(audit):
    layout = audit.layout
    K = audit.chi.shape[0] - 1
    out = np.zeros((K, 1))
    level = audit.indicators.accepted_level
    for k in range(K):
        worst = 0.0
        for a in np.flatnonzero(level[k]):
            for lvl in range(int(level[k, a]) + 1,
                             layout.max_effective_delay + 1):
                idx = layout.transit_index(int(a), lvl)
                worst = max(worst, float(np.abs(audit.chi[k, idx]).max()))
        out[k, 0] = worst
    return out


def reference_structure(matrices, n, entry_floor):
    """Per-matrix column sums, entry floor and real diagonals of dense
    matrices."""
    col_res = entry_res = diag_res = 0.0
    col_bad = entry_bad = diag_bad = None
    for k, mat in enumerate(matrices):
        r = float(np.abs(mat.sum(axis=0) - 1.0).max())
        col_res = max(col_res, r)
        if r > 1e-15 and col_bad is None:
            col_bad = k
        data = mat[mat != 0.0]
        short = float(np.maximum(entry_floor - data, 0.0).max(initial=0.0))
        entry_res = max(entry_res, short)
        if short > 1e-15 and entry_bad is None:
            entry_bad = k
        if np.any(mat.diagonal()[:n] <= 0.0):
            diag_res = 1.0
            if diag_bad is None:
                diag_bad = k
    return [("matrix-column-sums", col_res, col_bad),
            ("matrix-entry-floor", entry_res, entry_bad),
            ("matrix-real-diagonal-positive", diag_res, diag_bad)]


def reference_schedules():
    """(schedule, init timestamp, mask) for the schedules the audit meets:
    the verify_faulty_small instance, the A1 campaign bounds over n = 2..6,
    and a lossless schedule under an arc mask."""
    cfg = ExperimentConfig.from_file(CONFIGS / "verify_faulty_small.json")
    topo = cfg.topology.build(cfg.master_seed)
    for run in (0, 1):
        yield realize_schedule(topo, cfg.faults, 200, cfg.master_seed,
                               run), 0, None
    for n in range(2, 7):
        for seed in (11, 19):
            topo = build_random_strongly_connected(
                n, 0.5, stream(seed, role=Role.TOPOLOGY))
            yield realize_schedule(topo, ASYNC, 150, seed, 0), -1 + n % 2, \
                None
    topo = build_cycle(5, bidirectional=True)
    bounds = FaultBounds(3, 0, 3, wake_prob=0.5)
    mask = np.random.default_rng(0).random((160, topo.m)) < 0.7
    mask[::3] = True
    yield realize_schedule(topo, bounds, 150, 33, 0, mask=mask), 0, mask


def reference_delivery_indicators(schedule, init_timestamp):
    """Arc by arc, send by send: the acceptance table that the array-based
    build_delivery_indicators must reproduce exactly."""
    topo = schedule.topology
    l_d = schedule.bounds.max_effective_delay
    tau = np.zeros((schedule.horizon, topo.m, l_d), dtype=bool)
    for a, (src, dst) in enumerate(topo.arcs):
        sends = np.flatnonzero(schedule.arrival[:, a] >= 0)
        wake_slots = np.flatnonzero(schedule.wake[:, dst])
        processing = wake_slots[np.searchsorted(
            wake_slots, schedule.arrival[sends, a], side="left")]
        last_ts = init_timestamp
        i = 0
        while i < sends.size:
            j = i
            while j + 1 < sends.size and processing[j + 1] == processing[i]:
                j += 1
            winner = sends[j]  # FIFO: latest send in the group
            if winner > last_ts:
                tau[winner, a, processing[i] - winner - 1] = True
                last_ts = winner
            i = j + 1
    return tau


def test_delivery_indicators_match_per_arc_reference():
    cases = 0
    for sched, _, _ in reference_schedules():
        for init_ts in (0, -1):
            ind = build_delivery_indicators(sched, init_ts)
            assert np.array_equal(ind.tau,
                                  reference_delivery_indicators(sched,
                                                                init_ts))
            assert np.array_equal(ind.wake, sched.wake[:sched.horizon])
            cases += 1
    assert cases == 2 * 13


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(1, 4),
       st.integers(0, 3), st.integers(1, 4), st.floats(0.05, 1.0),
       st.floats(0.0, 0.9), st.sampled_from((0, -1)))
def test_delivery_indicators_match_reference_on_any_bounds(
        seed, n, l_u, l_f, l_del, wake_prob, loss_prob, init_ts):
    bounds = FaultBounds(l_u, l_f, l_del, wake_prob=wake_prob,
                         loss_prob=loss_prob if l_f else 0.0)
    topo = build_random_strongly_connected(n, 0.5,
                                           stream(seed, role=Role.TOPOLOGY))
    sched = realize_schedule(topo, bounds, 90, seed, 0)
    assert np.array_equal(build_delivery_indicators(sched, init_ts).tau,
                          reference_delivery_indicators(sched, init_ts))


def test_exclusion_windows_flag_out_of_order_processing():
    wake = np.ones((20, 2), dtype=bool)
    tau = np.zeros((20, 2, 3), dtype=bool)
    tau[[2, 10], 0, [0, 2]] = True        # processed at 3 and 13: in order
    assert _exclusion_windows(DeliveryIndicators(wake, tau)) == (0.0, None)
    tau[11, 0, 0] = True                  # processed at 12, before 13
    tau[[15, 16], 0, [2, 0]] = True       # processed at 18, then 17
    tau[[5, 6], 1, [1, 0]] = True         # both processed at 7
    # two arcs break the order, the earliest at send slot 6
    assert _exclusion_windows(DeliveryIndicators(wake, tau)) == (2.0, 6)


def test_mass_matrices_match_entrywise_reference():
    slots = 0
    for sched, init_ts, _ in reference_schedules():
        ind = build_delivery_indicators(sched, init_ts)
        l_d = sched.bounds.max_effective_delay
        lay = AugmentedLayout(sched.topology, l_d)
        got = build_mass_matrix(lay, ind.wake, ind.tau)
        # one stored structure: every slot keeps n + m + (L_d+1)*m entries
        n, m = sched.topology.n, sched.topology.m
        assert got.nnz == sched.horizon * (n + m + (l_d + 1) * m)
        for k in range(sched.horizon):
            want = reference_mass_matrix(lay, ind.wake[k], ind.tau[k])
            assert np.array_equal(got.dense(k), want)
            slots += 1
    assert slots == 2 * 200 + 10 * 150 + 150


def test_structure_checks_and_levels_above_match_references():
    for sched, init_ts, mask in reference_schedules():
        topo = sched.topology
        x0 = np.linspace(-2.0, 3.0, 2 * topo.n).reshape(topo.n, 2)
        res = run_protocol(topo, sched.bounds, x0, sched.horizon, 0,
                           init_timestamp=init_ts, mask=mask,
                           record_trace=True)
        audit = run_linear_audit(sched, x0, init_ts)
        assert np.array_equal(_levels_above_accepted(audit),
                              reference_levels_above(audit))
        floor = 1.0 / (topo.out_degree().max() + 1.0)
        report = cross_validate(res.trace, audit, x0)
        got = [(c.name, c.max_residual, c.first_bad_slot)
               for c in report.checks if c.name.startswith("matrix-")]
        dense = [audit.matrices.dense(k) for k in range(sched.horizon)]
        assert got == reference_structure(dense, topo.n, floor)


def test_structure_checks_flag_broken_matrices_like_reference():
    topo, x0 = small_faulty_case()
    sched = realize_schedule(topo, ASYNC, 60, 19, 0)
    res = run_protocol(topo, ASYNC, x0, 60, 19, record_trace=True)
    audit = run_linear_audit(sched, x0, 0)
    mats = audit.matrices
    data = mats.data.copy()
    data[7, 0] *= 0.5                        # column sum and floor break
    node1_diag = np.flatnonzero(mats.cols == 1)[0]
    data[9, node1_diag] = 0.0                # node 1's diagonal stored as 0
    data[12, -1] = 0.0                       # last column's only entry
    broken = dataclasses.replace(
        audit, matrices=dataclasses.replace(mats, data=data))
    report = cross_validate(res.trace, broken, x0)
    got = [(c.name, c.max_residual, c.first_bad_slot)
           for c in report.checks if c.name.startswith("matrix-")]
    floor = 1.0 / (topo.out_degree().max() + 1.0)
    want = reference_structure([broken.matrices.dense(k) for k in range(60)],
                               topo.n, floor)
    assert got == want
    assert [bad for _, _, bad in want] == [7, 7, 9]


def reference_step(matrix, state):
    """One slot in plain Python: each row adds its terms in column order,
    over the matrix's nonzero entries only."""
    out = np.zeros_like(state)
    for col in range(matrix.shape[1]):
        for row in np.flatnonzero(matrix[:, col]):
            out[row] += matrix[row, col] * state[col]
    return out


def test_linear_audit_steps_exactly_like_a_column_order_replay():
    # the stored explicit zeros must not change one bit of a finite state
    schedules = list(reference_schedules())
    applied = np.random.default_rng(5).normal(
        size=(200, schedules[0][0].topology.n, 2))
    cases = [(schedules[0], None), (schedules[4], None),
             (schedules[-1], None), (schedules[0], applied)]
    for (sched, init_ts, _), moves in cases:
        topo = sched.topology
        x0 = np.linspace(-2.0, 3.0, 2 * topo.n).reshape(topo.n, 2)
        audit = run_linear_audit(sched, x0, init_ts, applied=moves)
        ind, lay = audit.indicators, audit.layout
        state = np.zeros((lay.size, 3))
        state[:topo.n, :2], state[:topo.n, 2] = x0, 1.0
        for k in range(sched.horizon):
            assert np.array_equal(audit.chi[k], state[:, :2])
            assert np.array_equal(audit.psi[k], state[:, 2])
            if moves is not None:
                state[:topo.n, :2] += moves[k]
            state = reference_step(
                reference_mass_matrix(lay, ind.wake[k], ind.tau[k]), state)
        assert np.array_equal(audit.chi[-1], state[:, :2])
        assert np.array_equal(audit.psi[-1], state[:, 2])


def test_levels_above_accepted_sees_misplaced_transit_mass():
    topo, x0 = small_faulty_case()
    sched = realize_schedule(topo, ASYNC, 80, 19, 0)
    audit = run_linear_audit(sched, x0, 0)
    lay = audit.layout
    level = audit.indicators.accepted_level
    hits = np.argwhere((level > 0) & (level < lay.max_effective_delay))
    chi = audit.chi.copy()
    (k1, a1), (k2, a2) = hits[0], hits[-1]
    chi[k1, lay.transit_index(int(a1), lay.max_effective_delay), 1] = -2.5
    chi[k2, lay.transit_index(int(a2), int(level[k2, a2]) + 1), 0] = 0.75
    # mass at or below the accepted level, or on a quiet arc, is allowed
    chi[k2, lay.transit_index(int(a2), int(level[k2, a2])), 0] = 9.0
    planted = dataclasses.replace(audit, chi=chi)
    got = _levels_above_accepted(planted)
    assert np.array_equal(got, reference_levels_above(planted))
    assert got[k1, 0] == 2.5 and got[k2, 0] == 0.75
    assert np.count_nonzero(got) == 2


def test_nan_state_fails_the_audit():
    # a NaN injection must not pass as "ok": every identity the NaN
    # reaches has to flag the slot
    topo = build_cycle(3, bidirectional=True)
    x0 = np.arange(6.0).reshape(3, 2)
    horizon, seed = 40, 2
    nan = np.full((3, 2), np.nan)
    bump = lambda k: nan if k == 5 else None
    sched = realize_schedule(topo, ASYNC, horizon, seed, 0)
    assert sched.wake[5].any()
    res = run_protocol(topo, ASYNC, x0, horizon, seed,
                       update=Injection(bump), record_trace=True)
    audit = run_linear_audit(sched, x0, 0, applied=res.trace.applied)
    report = cross_validate(res.trace, audit, x0, applied=res.trace.applied)
    assert not report.ok
    flagged = {c.name: c for c in report.checks
               if c.first_bad_slot is not None}
    for name in ("chi-real-equals-x", "excess-plus-transit-plus-absorbed",
                 "mass-conservation"):
        assert np.isnan(flagged[name].max_residual), name
    assert min(c.first_bad_slot for c in flagged.values()) >= 5
    with pytest.raises(VerificationError, match="slot"):
        verify_run(topo, ASYNC, x0, horizon, seed, update=Injection(bump))
