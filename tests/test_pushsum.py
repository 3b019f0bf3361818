"""Running-sum protocol core: push arithmetic, stale discard, consensus."""

import numpy as np
import pytest

from pushsim.engine import run_protocol
from pushsim.faultnet import FaultBounds
from pushsim.graph import build_cycle, build_random_strongly_connected
from pushsim.pushsum import (InFlightMessage, Injection, dump_state_trace,
                             init_node, process_inbox,
                             reference_averaging_run, run_averaging,
                             wake_and_push)
from pushsim.rng import Role, stream

SYNC = FaultBounds(1, 0, 1)
ASYNC = FaultBounds(3, 3, 3, wake_prob=0.5, loss_prob=0.3)


def message(arc, ts, phi_x, phi_y):
    return InFlightMessage(arc=arc, src=0, dst=1, send_slot=ts,
                           arrival_slot=ts + 1, timestamp=ts,
                           phi_x=np.asarray(phi_x, dtype=float),
                           phi_y=float(phi_y))


def test_push_splits_mass_into_running_totals():
    state = init_node(np.array([4.0]), in_arcs=[], init_timestamp=0)
    phi_x, phi_y = wake_and_push(state, out_degree=1, slot=0)
    assert phi_x[0] == 2.0 and phi_y == 0.5
    assert state.x[0] == 2.0 and state.y == 0.5
    assert state.kappa == 0
    phi_x, phi_y = wake_and_push(state, out_degree=1, slot=1)
    # running totals keep growing: 3/4 of the initial mass sent so far
    assert phi_x[0] == 3.0 and phi_y == 0.75
    assert state.x[0] == 1.0 and state.y == 0.25


def test_receive_recovers_lost_mass_by_differencing():
    state = init_node(np.array([0.0]), in_arcs=[7], init_timestamp=0)
    # two sends were lost; the third carries their mass in the totals
    process_inbox(state, [message(7, ts=3, phi_x=[1.75], phi_y=0.875)], slot=4)
    assert state.x[0] == 1.75 and state.y == pytest.approx(1.875)
    assert state.rho_x[7][0] == 1.75 and state.kappa_in[7] == 3
    # differencing: only the increment since rho arrives next time
    process_inbox(state, [message(7, ts=5, phi_x=[2.0], phi_y=1.0)], slot=6)
    assert state.x[0] == pytest.approx(2.0)
    assert state.y == pytest.approx(2.0)


def test_stale_messages_are_discarded():
    state = init_node(np.array([0.0]), in_arcs=[7], init_timestamp=0)
    process_inbox(state, [message(7, ts=0, phi_x=[5.0], phi_y=0.5)], slot=1)
    # timestamp not newer than the stored watermark: no state change
    assert state.x[0] == 0.0 and state.y == 1.0 and state.kappa_in[7] == 0
    process_inbox(state, [message(7, ts=1, phi_x=[5.0], phi_y=0.5)], slot=2)
    assert state.x[0] == 5.0 and state.kappa_in[7] == 1


def test_coalesced_messages_use_newest_totals_only():
    state = init_node(np.array([0.0]), in_arcs=[7], init_timestamp=-1)
    batch = [message(7, ts=0, phi_x=[1.0], phi_y=0.25),
             message(7, ts=2, phi_x=[1.5], phi_y=0.375)]
    process_inbox(state, batch, slot=3)
    # one merge: the newer totals absorb the older message entirely
    assert state.x[0] == 1.5 and state.y == pytest.approx(1.375)
    assert state.kappa_in[7] == 2
    assert state.rho_x[7][0] == 1.5 and state.rho_y[7] == 0.375


def test_two_node_consensus_reaches_mean():
    topo = build_cycle(2)
    x0 = np.array([[0.0], [10.0]])
    res = run_averaging(topo, SYNC, x0, 200, 3)
    assert np.max(np.abs(res.z_final - 5.0)) < 1e-9


def test_faulty_consensus_on_random_strongly_connected():
    topo = build_random_strongly_connected(5, 0.4, stream(6, 0, Role.TOPOLOGY, 0))
    x0 = np.linspace(-3.0, 9.0, 10).reshape(5, 2)
    res = run_averaging(topo, ASYNC, x0, 600, 6)
    assert np.max(np.abs(res.z_final - x0.mean(axis=0))) < 1e-9


def test_coordinates_evolve_independently():
    topo = build_cycle(3, bidirectional=True)
    x0 = np.array([[1.0, -2.0], [0.5, 3.0], [-1.0, 0.25]])
    both = run_averaging(topo, ASYNC, x0, 60, 12, record_trace=True)
    first = run_averaging(topo, ASYNC, x0[:, :1], 60, 12, record_trace=True)
    assert np.array_equal(both.trace.x[:, :, :1], first.trace.x)
    assert np.array_equal(both.trace.y, first.trace.y)


def test_engine_matches_reference_implementation_exactly():
    # vectorized engine against the object-per-node oracle, faulty async
    cycle = build_cycle(4, bidirectional=True)
    cases = [(cycle, ASYNC, 120, 21, run, chunk)
             for run, chunk in ((0, 128), (1, 128), (0, 7))]
    # up to 11 in-arcs per node: both add them left to right in arc-id
    # order (the first graph's in-degrees are 3, 1, 3, 3, 4, 3)
    for n, p, seed in ((6, 0.4, 3), (8, 0.6, 4), (12, 0.9, 5)):
        topo = build_random_strongly_connected(
            n, p, stream(seed, 0, Role.TOPOLOGY))
        cases += [(topo, bounds, 60, 14, 0, 7) for bounds in (SYNC, ASYNC)]
    for topo, bounds, horizon, seed, run, chunk in cases:
        x0 = np.arange(2.0 * topo.n).reshape(topo.n, 2)
        ref = reference_averaging_run(topo, bounds, x0, horizon, seed,
                                      run=run)
        res = run_averaging(topo, bounds, x0, horizon, seed, runs=(run,),
                            record_trace=True, chunk=chunk)
        tr = res.trace
        for name in ("x", "y", "z", "phi_x", "phi_y", "rho_x", "rho_y",
                     "kappa", "wake"):
            assert np.array_equal(getattr(tr, name), getattr(ref, name)), \
                (topo.n, bounds, name)


def test_zero_perturbation_is_plain_averaging():
    topo = build_cycle(3, bidirectional=True)
    x0 = np.arange(6.0).reshape(3, 2)
    plain = run_averaging(topo, ASYNC, x0, 80, 5, record_trace=True)
    bumped = run_protocol(topo, ASYNC, x0, 80, 5,
                          update=Injection(lambda k: None),
                          record_trace=True)
    assert np.array_equal(plain.trace.x, bumped.trace.x)
    assert np.array_equal(plain.trace.z, bumped.trace.z)


def test_perturbation_shifts_running_average():
    # synchronous ring, every node nudged by c*e1 at each wake:
    # the aggregate mean must advance by exactly c per slot
    topo = build_cycle(4, bidirectional=True)
    x0 = np.zeros((4, 2))
    c = 0.125
    delta = np.zeros((4, 2))
    delta[:, 0] = c
    bump = lambda k: delta if k < 10 else None
    ref = reference_averaging_run(topo, SYNC, x0, 200, 2, perturbation=bump)
    slots = np.minimum(np.arange(201.0), 10.0)
    assert np.allclose(ref.aug_mean[:, 0], c * slots, atol=1e-12)
    assert np.allclose(ref.aug_mean[:, 1], 0.0)
    assert np.allclose(ref.applied[:10, :, 0], c)
    # once the drift stops the nodes settle on the shifted mean
    res = run_protocol(topo, SYNC, x0, 200, 2, update=Injection(bump))
    assert np.max(np.abs(res.z_final[0, :, 0] - 10 * c)) < 1e-9


def test_engine_reference_weld_with_perturbation():
    topo = build_cycle(3, bidirectional=True)
    x0 = np.arange(6.0).reshape(3, 2)
    bump = np.full((3, 2), 0.01)
    ref = reference_averaging_run(topo, ASYNC, x0, 90, 13,
                                  perturbation=lambda k: bump)
    res = run_protocol(topo, ASYNC, x0, 90, 13,
                       update=Injection(lambda k: bump), record_trace=True)
    assert np.array_equal(res.trace.x, ref.x)
    assert np.array_equal(res.trace.applied, ref.applied)
    # summation order across nodes differs, so only near-exact here
    assert np.allclose(res.trace.aug_mean, ref.aug_mean, atol=1e-12)


def test_ratio_estimates_stay_finite_under_faults():
    # y mass can dip but never reaches zero on a strongly connected graph
    topo = build_cycle(5, bidirectional=True)
    x0 = np.ones((5, 1))
    res = run_averaging(topo, ASYNC, x0, 300, 8, record_trace=True)
    assert np.all(res.trace.y > 0.0)
    assert np.all(np.isfinite(res.trace.z))


def test_dump_state_trace_round_trip(tmp_path):
    topo = build_cycle(2, bidirectional=True)
    x0 = np.array([[1.0], [2.0]])
    res = run_averaging(topo, SYNC, x0, 10, 4, record_trace=True)
    path = tmp_path / "trace.csv"
    dump_state_trace(res.trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "slot,node,kappa,y,phi_y,x0,z0,phi_x0"
    assert len(lines) == 1 + 11 * 2          # one row per (slot, node)
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert first["slot"] == "0" and float(first["x0"]) == 1.0
    assert float(first["y"]) == 1.0


CHUNKS = (1, 2, 3, 7, 128, 512)


def test_engine_results_do_not_depend_on_chunk_size():
    # in-flight arrivals, last wakes and accepted send slots carry across
    # chunk boundaries; every chunking must give the same bits
    from pushsim.objectives import box_noise_model, generate_quadratic
    from pushsim.optimizer import StepSizeLedger, run_gradient_push
    topo = build_cycle(4, bidirectional=True)
    obj = generate_quadratic(4, 2, master_seed=8)
    led = StepSizeLedger(numerator=4.0, mu=obj.mu_total, horizon=300)
    x0 = np.arange(8.0).reshape(4, 2)
    bump = np.full((4, 2), 0.01)
    masked = build_cycle(5, bidirectional=True)
    mask = np.random.default_rng(0).random((300, masked.m)) < 0.7
    mask[::3] = True
    lossless = FaultBounds(3, 0, 3, wake_prob=0.5)
    assert ASYNC.max_transmission_delay == 3

    def outputs(chunk):
        opt = run_gradient_push(topo, ASYNC, obj, box_noise_model(4.0, 2),
                                led, 300, 21, runs=(5, 0, 3),
                                z_star=obj.optimum(), chunk=chunk)
        pert = run_protocol(topo, ASYNC, x0, 300, 13,
                            update=Injection(lambda k: bump),
                            record_trace=True, chunk=chunk)
        mask_run = run_averaging(masked, lossless, np.ones((5, 1)), 300, 33,
                                 mask=mask, record_trace=True, chunk=chunk)
        out = {"opt.e_dist": opt.e_dist, "opt.z_final": opt.z_final,
               "pert.aug_mean": pert.trace.aug_mean}
        for name, res in (("pert", pert), ("mask", mask_run)):
            for field in ("x", "y", "z", "phi_x", "phi_y", "rho_x", "rho_y",
                          "kappa", "wake", "applied"):
                out[f"{name}.{field}"] = getattr(res.trace, field)
        return out

    want = outputs(CHUNKS[-1])
    for chunk in CHUNKS[:-1]:
        got = outputs(chunk)
        for name, value in want.items():
            assert np.array_equal(got[name], value), (chunk, name)


def test_trace_records_the_realized_schedule():
    # the audit reads the engine's recorded schedule instead of realizing
    # it again, so it must equal realize_schedule's, L_d wake tail included
    from pushsim.faultnet import realize_schedule
    masked = build_cycle(5, bidirectional=True)
    mask = np.random.default_rng(1).random((150, masked.m)) < 0.7
    mask[::3] = True
    cases = [(build_cycle(4, bidirectional=True), SYNC, None),
             (build_cycle(4, bidirectional=True), ASYNC, None),
             (masked, FaultBounds(3, 0, 3, wake_prob=0.5), mask)]
    for topo, bounds, arc_mask in cases:
        want = realize_schedule(topo, bounds, 150, 17, 2, mask=arc_mask)
        assert want.wake.shape[0] == 150 + bounds.max_effective_delay
        for chunk in (1, 7, 128):
            got = run_averaging(topo, bounds, np.ones((topo.n, 1)), 150, 17,
                                runs=(2,), mask=arc_mask, record_trace=True,
                                chunk=chunk).trace
            assert got.schedule.horizon == 150
            assert np.array_equal(got.schedule.wake, want.wake), chunk
            assert np.array_equal(got.schedule.arrival, want.arrival), chunk
            assert np.array_equal(got.wake, want.wake[:150])


def test_engine_rejects_acceptance_older_than_effective_delay(monkeypatch):
    # a schedule in which both nodes sleep longer than L_u allows: the
    # slot-0 message is still the newest when node 1 wakes at slot 4
    from pushsim import engine, faultnet
    from pushsim.errors import InconsistentScheduleError

    def starved(bounds, topology, state, first_slot, horizon, *draws):
        wake, arrival = faultnet.realize_chunk(bounds, topology, state,
                                               first_slot, horizon, *draws)
        slots = np.arange(first_slot, first_slot + wake.shape[1])
        asleep = (slots >= 1) & (slots <= 3)
        wake[:, asleep, :] = False
        arrival[:, asleep, :] = faultnet.NOT_SENT
        return wake, arrival

    monkeypatch.setattr(engine, "realize_chunk", starved)
    topo = build_cycle(2, bidirectional=True)
    # timestamps start at -1, so the slot-0 message is acceptable
    with pytest.raises(InconsistentScheduleError,
                       match="slot 0 accepted at slot 4"):
        engine.run_protocol(topo, SYNC, np.array([[0.0], [1.0]]), 10, 3,
                            init_timestamp=-1)
