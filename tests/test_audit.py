"""Linear audit: augmented matrices, identity checks, bounds, diagnostics."""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushsim import pushsum
from pushsim.audit import (AugmentedLayout, _exclusion_windows,
                           _levels_above_accepted, audit_report, audit_trace,
                           audit_window, build_delivery_indicators,
                           build_mass_matrix, contraction_bound,
                           cross_validate, envelope_check, run_linear_audit,
                           tracking_bound_series, verify_run,
                           wbar_diagnostic, window_positivity_check)
from pushsim.errors import ConfigurationError, VerificationError
from pushsim.engine import run_protocol
from pushsim.faultnet import FaultBounds, realize_schedule
from pushsim.graph import build_cycle, build_random_strongly_connected
from pushsim.harness import ExperimentConfig
from pushsim.objectives import NoiseModel, generate_quadratic
from pushsim.optimizer import StepSizeLedger, run_gradient_push
from pushsim.pushsum import Injection
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
    level = build_delivery_indicators(sched)
    lay = AugmentedLayout(topo, sched.bounds.max_effective_delay)
    mats = build_mass_matrix(lay, sched.wake[:4], level)
    m0 = mats.dense(0)
    # real columns split 1/2 diagonal, 1/2 into the arc's level-1 slot
    assert m0[0, 0] == 0.5 and m0[lay.transit_index(0, 1), 0] == 0.5
    assert m0[1, 1] == 0.5 and m0[lay.transit_index(1, 1), 1] == 0.5
    assert np.allclose(m0.sum(axis=0), 1.0)
    m1 = mats.dense(1)
    # transit columns: level-1 mass lands on the receiving node
    assert m1[1, lay.transit_index(0, 1)] == 1.0
    assert m1[0, lay.transit_index(1, 1)] == 1.0


def test_mass_matrix_rejects_a_misshapen_delivery_table():
    topo = build_cycle(2)
    lay = AugmentedLayout(topo, 3)
    wake = np.ones((1, 2), dtype=bool)
    with pytest.raises(ConfigurationError,
                       match=r"^delivery table shape \(1, 3\) != \(1, 2\)$"):
        build_mass_matrix(lay, wake, np.zeros((1, 3), dtype=np.int64))


def test_matrix_columns_are_stochastic_under_faults():
    topo, x0 = small_faulty_case()
    trace = run_protocol(topo, ASYNC, x0, 120, 19, record_trace=True).trace
    audit = run_linear_audit(trace)
    floor = 1.0 / (topo.out_degree().max() + 1)
    for k in range(120):
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
    level = build_delivery_indicators(sched)
    arc = next(a for a in range(topo.m) if np.count_nonzero(level[:, a]) > 3)
    send = np.flatnonzero(level[:, arc])[3]
    target = int(send + level[send, arc])
    skip_receive_update(monkeypatch, arc, target)
    ref = pushsum.reference_averaging_run(topo, ASYNC, x0, 300, 19)
    report = cross_validate(ref, run_linear_audit(ref))
    assert not report.ok
    bad = [c for c in report.checks if c.first_bad_slot is not None]
    assert min(c.first_bad_slot for c in bad) == target
    with pytest.raises(VerificationError, match="slot"):
        report.raise_on_failure()


def test_audit_tracks_applied_optimizer_moves():
    topo = build_cycle(3, bidirectional=True)
    obj = generate_quadratic(3, 2, master_seed=4)
    led = StepSizeLedger(numerator=3.0, mu=obj.mu_total, horizon=150)
    res = run_gradient_push(topo, ASYNC, obj, NoiseModel(0.0, 2), led, 150,
                            15, record_trace=True)
    report = audit_trace(res.trace)
    assert report.ok, report.to_text()


def test_audit_trace_needs_nothing_but_the_trace():
    # the start state, initial timestamp and applied moves all come from
    # the trace: a perturbed engine trace, a gradient-push trace (initial
    # timestamp -1, all-ones start) and an oracle trace each pass alone
    topo, x0 = small_faulty_case()
    bump = np.full((topo.n, 2), 0.31)
    perturbed = run_protocol(
        topo, ASYNC, x0, 200, 19,
        update=Injection(lambda k: bump if k % 7 == 1 else None),
        record_trace=True).trace
    assert np.any(perturbed.applied != 0.0)
    obj = generate_quadratic(topo.n, 2, master_seed=4)
    led = StepSizeLedger(numerator=topo.n, mu=obj.mu_total, horizon=200)
    gradient = run_gradient_push(topo, ASYNC, obj, NoiseModel(0.5, 2), led,
                                 200, 19, record_trace=True).trace
    assert np.all(gradient.kappa[0] == -1)
    oracle = pushsum.reference_averaging_run(topo, ASYNC, x0, 200, 19)
    for trace in (perturbed, gradient, oracle):
        report = audit_trace(trace)
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
    # n^(n L_s) = 10^1200000 lies beyond decimal's default exponent range
    assert contraction_bound(1000, 400).vacuous
    with pytest.raises(ConfigurationError):
        contraction_bound(1, 2)
    with pytest.raises(ConfigurationError):
        contraction_bound(2, 1)


def test_envelope_holds_on_lossless_two_node_run():
    topo = build_cycle(2)
    x0 = np.array([[0.0], [1.0]])
    res = run_protocol(topo, SYNC, x0, 2000, 3, record_trace=True)
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

def test_window_positivity_holds_from_window_zero():
    # slot-0 sends are accepted, so the very first window mixes too
    topo = build_cycle(2)
    audit = run_linear_audit(run_protocol(
        topo, SYNC, np.ones((2, 1)), 30, 1, record_trace=True).trace)
    ok, bad = window_positivity_check(audit, SYNC.max_receipt_gap)
    assert ok and bad is None


def test_window_positivity_async_case():
    topo = build_cycle(3, bidirectional=True)
    bounds = FaultBounds(3, 3, 3, wake_prob=0.6, loss_prob=0.3)
    audit = run_linear_audit(run_protocol(
        topo, bounds, np.ones((3, 1)), 150, 23, record_trace=True).trace)
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

def reference_mass_matrix(layout, wake_k, level_k):
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

    for i in range(n):
        if not wake_k[i]:
            put(i, i, 1.0)
            continue
        share = 1.0 / (deg[i] + 1.0)
        put(i, i, share)
        for a in np.flatnonzero(topo.src == i):
            lvl = level_k[a]
            if lvl > 0:
                put(layout.transit_index(a, int(lvl)), i, share)
            else:
                put(layout.excess_index(a), i, share)
    for a in range(m):
        put(topo.dst[a], layout.transit_index(a, 1), 1.0)
        for lvl in range(2, l_d + 1):
            put(layout.transit_index(a, lvl - 1),
                layout.transit_index(a, lvl), 1.0)
        lvl = level_k[a]
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
    level = audit.level
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


def reference_traces():
    """Engine traces of the runs the audit meets: the verify_faulty_small
    instance, the A1 campaign bounds over n = 2..6, and a lossless run
    under an arc mask."""

    def trace(topo, bounds, horizon, seed, run=0, mask=None):
        x0 = np.linspace(-2.0, 3.0, 2 * topo.n).reshape(topo.n, 2)
        return run_protocol(topo, bounds, x0, horizon, seed, runs=(run,),
                            mask=mask, record_trace=True).trace

    cfg = ExperimentConfig.from_file(CONFIGS / "verify_faulty_small.json")
    topo = cfg.topology.build(cfg.master_seed)
    for run in (0, 1):
        yield trace(topo, cfg.faults, 200, cfg.master_seed, run)
    for n in range(2, 7):
        for seed in (11, 19):
            topo = build_random_strongly_connected(
                n, 0.5, stream(seed, role=Role.TOPOLOGY))
            yield trace(topo, ASYNC, 150, seed)
    topo = build_cycle(5, bidirectional=True)
    bounds = FaultBounds(3, 0, 3, wake_prob=0.5)
    mask = np.random.default_rng(0).random((160, topo.m)) < 0.7
    mask[::3] = True
    yield trace(topo, bounds, 150, 33, mask=mask)


def reference_delivery_indicators(schedule):
    """Arc by arc, send by send: the acceptance table that the array-based
    build_delivery_indicators must reproduce exactly."""
    topo = schedule.topology
    level = np.zeros((schedule.horizon, topo.m), dtype=np.int64)
    for a, (src, dst) in enumerate(topo.arcs):
        sends = np.flatnonzero(schedule.arrival[:, a] >= 0)
        wake_slots = np.flatnonzero(schedule.wake[:, dst])
        processing = wake_slots[np.searchsorted(
            wake_slots, schedule.arrival[sends, a], side="left")]
        last_ts = -1
        i = 0
        while i < sends.size:
            j = i
            while j + 1 < sends.size and processing[j + 1] == processing[i]:
                j += 1
            winner = sends[j]  # FIFO: latest send in the group
            if winner > last_ts:
                level[winner, a] = processing[i] - winner
                last_ts = winner
            i = j + 1
    return level


def test_delivery_indicators_match_per_arc_reference():
    cases = 0
    for trace in reference_traces():
        assert np.array_equal(
            build_delivery_indicators(trace.schedule),
            reference_delivery_indicators(trace.schedule))
        cases += 1
    assert cases == 13


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(1, 4),
       st.integers(0, 3), st.integers(1, 4), st.floats(0.05, 1.0),
       st.floats(0.0, 0.9))
def test_delivery_indicators_match_reference_on_any_bounds(
        seed, n, l_u, l_f, l_del, wake_prob, loss_prob):
    bounds = FaultBounds(l_u, l_f, l_del, wake_prob=wake_prob,
                         loss_prob=loss_prob if l_f else 0.0)
    topo = build_random_strongly_connected(n, 0.5,
                                           stream(seed, role=Role.TOPOLOGY))
    sched = realize_schedule(topo, bounds, 90, seed, 0)
    assert np.array_equal(build_delivery_indicators(sched),
                          reference_delivery_indicators(sched))


def test_exclusion_windows_flag_out_of_order_processing():
    level = np.zeros((20, 2), dtype=np.int64)
    none = np.full(2, -1)
    level[[2, 10], 0] = [1, 3]            # processed at 3 and 13: in order
    processed, broken = _exclusion_windows(level, 0, none, none)
    assert processed.tolist() == [13, -1] and broken.tolist() == [-1, -1]
    level[11, 0] = 1                      # processed at 12, before 13
    level[[15, 16], 0] = [3, 1]           # processed at 18, then 17
    level[[5, 6], 1] = [2, 1]             # both processed at 7
    # arc 0 breaks first at send slot 11, arc 1 at 6; their last accepted
    # sends are processed at 17 and 7
    want = [[17, 7], [11, 6]]
    assert [v.tolist() for v in _exclusion_windows(level, 0, none, none)] \
        == want
    # carried across a cut anywhere, the scan compares the same pairs
    for cut in range(21):
        carried = _exclusion_windows(level[:cut], 0, none, none)
        assert [v.tolist() for v in _exclusion_windows(
            level[cut:], cut, *carried)] == want


def test_mass_matrices_match_entrywise_reference():
    slots = 0
    for trace in reference_traces():
        sched = trace.schedule
        level = build_delivery_indicators(sched)
        l_d = sched.bounds.max_effective_delay
        lay = AugmentedLayout(sched.topology, l_d)
        got = build_mass_matrix(lay, sched.wake[:sched.horizon], level)
        # one stored structure: every slot keeps n + m + (L_d+1)*m entries
        n, m = sched.topology.n, sched.topology.m
        assert got.nnz == sched.horizon * (n + m + (l_d + 1) * m)
        for k in range(sched.horizon):
            want = reference_mass_matrix(lay, sched.wake[k], level[k])
            assert np.array_equal(got.dense(k), want)
            slots += 1
    assert slots == 2 * 200 + 10 * 150 + 150


def test_structure_checks_and_levels_above_match_references():
    for trace in reference_traces():
        topo = trace.schedule.topology
        audit = run_linear_audit(trace)
        assert np.array_equal(_levels_above_accepted(audit),
                              reference_levels_above(audit))
        floor = 1.0 / (topo.out_degree().max() + 1.0)
        report = cross_validate(trace, audit)
        got = [(c.name, c.max_residual, c.first_bad_slot)
               for c in report.checks if c.name.startswith("matrix-")]
        dense = [audit.matrices.dense(k)
                 for k in range(trace.schedule.horizon)]
        assert got == reference_structure(dense, topo.n, floor)


def test_structure_checks_flag_broken_matrices_like_reference():
    topo, x0 = small_faulty_case()
    trace = run_protocol(topo, ASYNC, x0, 60, 19, record_trace=True).trace
    audit = run_linear_audit(trace)
    mats = audit.matrices
    data = mats.data.copy()
    data[7, 0] *= 0.5                        # column sum and floor break
    node1_diag = np.flatnonzero(mats.cols == 1)[0]
    data[9, node1_diag] = 0.0                # node 1's diagonal stored as 0
    data[12, -1] = 0.0                       # last column's only entry
    broken = dataclasses.replace(
        audit, matrices=dataclasses.replace(mats, data=data))
    report = cross_validate(trace, broken)
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
    # the stored explicit zeros must not change one bit of a finite state,
    # and neither may skipping the slots where no move was applied
    traces = list(reference_traces())
    moves = np.random.default_rng(5).normal(
        size=(200, traces[0].schedule.topology.n, 2))
    moves[::3] = 0.0
    cases = [traces[0], traces[4], traces[-1],
             dataclasses.replace(traces[0], applied=moves)]
    for trace in cases:
        sched = trace.schedule
        topo = sched.topology
        audit = run_linear_audit(trace)
        lay = audit.layout
        state = np.zeros((lay.size, 3))
        state[:topo.n, :2], state[:topo.n, 2] = trace.x[0], 1.0
        for k in range(sched.horizon):
            assert np.array_equal(audit.chi[k], state[:, :2])
            assert np.array_equal(audit.psi[k], state[:, 2])
            state[:topo.n, :2] += trace.applied[k]
            state = reference_step(
                reference_mass_matrix(lay, sched.wake[k], audit.level[k]),
                state)
        assert np.array_equal(audit.chi[-1], state[:, :2])
        assert np.array_equal(audit.psi[-1], state[:, 2])


def test_levels_above_accepted_sees_misplaced_transit_mass():
    topo, x0 = small_faulty_case()
    audit = run_linear_audit(
        run_protocol(topo, ASYNC, x0, 80, 19, record_trace=True).trace)
    lay = audit.layout
    level = audit.level
    hits = np.argwhere((level > 0) & (level < lay.max_effective_delay))
    state = audit.state.copy()
    (k1, a1), (k2, a2) = hits[0], hits[-1]
    state[k1, lay.transit_index(int(a1), lay.max_effective_delay), 1] = -2.5
    state[k2, lay.transit_index(int(a2), int(level[k2, a2]) + 1), 0] = 0.75
    # mass at or below the accepted level, or on a quiet arc, is allowed
    state[k2, lay.transit_index(int(a2), int(level[k2, a2])), 0] = 9.0
    planted = dataclasses.replace(audit, state=state)
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
    trace = run_protocol(topo, ASYNC, x0, horizon, seed,
                         update=Injection(bump), record_trace=True).trace
    assert trace.wake[5].any()
    report = cross_validate(trace, run_linear_audit(trace))
    assert not report.ok
    flagged = {c.name: c for c in report.checks
               if c.first_bad_slot is not None}
    for name in ("chi-real-equals-x", "excess-plus-transit-plus-absorbed",
                 "mass-conservation"):
        assert np.isnan(flagged[name].max_residual), name
    assert min(c.first_bad_slot for c in flagged.values()) >= 5
    with pytest.raises(VerificationError, match="slot"):
        audit_trace(trace)


# ------------------------------------------------------- windowed audit

def injected_trace(value):
    """A 3-node async averaging trace with `value` added at every waking
    node at slot 5 and its negation at slot 9."""
    topo = build_cycle(3, bidirectional=True)
    move = np.full((3, 2), value)
    bump = {5: move, 9: -move}
    return run_protocol(topo, ASYNC, np.arange(6.0).reshape(3, 2), 40, 2,
                        update=Injection(bump.get), record_trace=True).trace


def a1_traces():
    """The A1 campaign's instances: random networks of 2..6 nodes, four
    seeds each, quad_async's fault bounds, 500 slots."""
    for n in range(2, 7):
        for seed in (11, 19, 23, 31):
            topo = build_random_strongly_connected(
                n, 0.5, stream(seed, role=Role.TOPOLOGY))
            x0 = stream(seed, role=Role.INIT).uniform(-5.0, 5.0, size=(n, 2))
            yield run_protocol(topo, ASYNC, x0, 500, seed,
                               record_trace=True).trace


def assert_same_report(got, want):
    assert [(c.name, c.first_bad_slot) for c in got.checks] == \
        [(c.name, c.first_bad_slot) for c in want.checks]
    assert np.array_equal([c.max_residual for c in got.checks],
                          [c.max_residual for c in want.checks],
                          equal_nan=True)


def assert_windows_match_whole_span(trace):
    """Windows of 1, 7, 128 and K slots: each window's states, delivery
    table and matrices are the whole-span audit's rows, what it carries at
    the end matches, and the merged report is the whole-span report."""
    K = trace.schedule.horizon
    whole = run_linear_audit(trace)
    want = cross_validate(trace, whole)
    for window in (1, 7, 128, K):
        carry = None
        for first in range(0, K, window):
            part = run_linear_audit(trace, min(window, K - first), carry)
            end = first + part.level.shape[0]
            assert part.first == first
            assert np.array_equal(part.state, whole.state[first:end + 1],
                                  equal_nan=True)
            assert np.array_equal(part.level, whole.level[first:end])
            assert np.array_equal(part.matrices.rows,
                                  whole.matrices.rows[first:end])
            assert np.array_equal(part.matrices.data,
                                  whole.matrices.data[first:end])
            carry = part.end
        assert carry.first == K
        assert np.array_equal(carry.state, whole.state[-1], equal_nan=True)
        assert np.array_equal(carry.injected, whole.injected[-1],
                              equal_nan=True)
        assert np.array_equal(carry.processed, whole.processed)
        assert np.array_equal(carry.broken, whole.broken)
        assert_same_report(audit_report(trace, window), want)
    return want


def test_windowed_audit_matches_the_whole_span_on_clean_runs():
    traces = list(reference_traces()) + list(a1_traces())
    assert len(traces) == 13 + 20
    for trace in traces:
        assert assert_windows_match_whole_span(trace).ok


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_windowed_audit_matches_the_whole_span_on_non_finite_runs(value):
    trace = injected_trace(value)
    report = assert_windows_match_whole_span(trace)
    assert not report.ok
    assert min(c.first_bad_slot for c in report.checks
               if c.first_bad_slot is not None) == 5


def test_audit_window_keeps_the_state_within_the_cell_budget():
    cfg = ExperimentConfig.from_file(CONFIGS / "verify_faulty_small.json")
    topo = cfg.topology.build(cfg.master_seed)
    layout = AugmentedLayout(topo, cfg.faults.max_effective_delay)
    assert (layout.size, audit_window(layout, 2)) == (77, 283)
    assert audit_window(AugmentedLayout(build_cycle(10, True), 5), 2) == 168
    # a state wider than the budget still gets one slot
    assert audit_window(layout, 1 << 16) == 1
    with pytest.raises(ConfigurationError, match="window"):
        audit_report(next(reference_traces()), 0)


def test_audit_memory_does_not_grow_with_the_span():
    # the audit's traced peak above the recorded trace, on quad_async's
    # network and fault bounds, at 2,000 and 20,000 slots
    topo = build_cycle(10, bidirectional=True)
    x0 = np.linspace(-3.0, 3.0, 20).reshape(10, 2)
    peaks = []
    for horizon in (2000, 20000):
        trace = run_protocol(topo, ASYNC, x0, horizon, 11,
                             record_trace=True).trace
        tracemalloc.start()
        try:
            audit_trace(trace)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # measured: 1.85 MiB at both spans (ratio 1.000)
    assert peaks[1] <= 1.05 * peaks[0], peaks
