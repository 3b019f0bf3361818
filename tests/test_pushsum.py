"""Running-sum protocol core: push arithmetic, stale discard, consensus."""

import numpy as np
import pytest

from pushsim.engine import Trace, last_wakes, run_protocol
from pushsim.faultnet import NOT_SENT, FaultBounds, ScheduleRealization
from pushsim.graph import (Topology, build_cycle,
                           build_random_strongly_connected)
from pushsim.pushsum import (InFlightMessage, Injection, init_node,
                             process_inbox, reference_averaging_run,
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
    state = init_node(np.array([4.0]), in_arcs=[])
    phi_x, phi_y = wake_and_push(state, out_degree=1, slot=0)
    assert phi_x[0] == 2.0 and phi_y == 0.5
    assert state.x[0] == 2.0 and state.y == 0.5
    assert state.kappa == 0
    phi_x, phi_y = wake_and_push(state, out_degree=1, slot=1)
    # running totals keep growing: 3/4 of the initial mass sent so far
    assert phi_x[0] == 3.0 and phi_y == 0.75
    assert state.x[0] == 1.0 and state.y == 0.25


def test_receive_recovers_lost_mass_by_differencing():
    state = init_node(np.array([0.0]), in_arcs=[7])
    # two sends were lost; the third carries their mass in the totals
    process_inbox(state, [message(7, ts=3, phi_x=[1.75], phi_y=0.875)], slot=4)
    assert state.x[0] == 1.75 and state.y == pytest.approx(1.875)
    assert state.rho_x[7][0] == 1.75 and state.kappa_in[7] == 3
    # differencing: only the increment since rho arrives next time
    process_inbox(state, [message(7, ts=5, phi_x=[2.0], phi_y=1.0)], slot=6)
    assert state.x[0] == pytest.approx(2.0)
    assert state.y == pytest.approx(2.0)


def test_stale_messages_are_discarded():
    state = init_node(np.array([0.0]), in_arcs=[7])
    assert state.kappa == state.kappa_in[7] == -1
    # a slot-0 send is newer than the initial timestamp
    process_inbox(state, [message(7, ts=0, phi_x=[5.0], phi_y=0.5)], slot=1)
    assert state.x[0] == 5.0 and state.y == 1.5 and state.kappa_in[7] == 0
    # timestamp not newer than the stored watermark: no state change
    process_inbox(state, [message(7, ts=0, phi_x=[6.0], phi_y=0.75)], slot=2)
    assert state.x[0] == 5.0 and state.y == 1.5 and state.kappa_in[7] == 0


def test_coalesced_messages_use_newest_totals_only():
    state = init_node(np.array([0.0]), in_arcs=[7])
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
    res = run_protocol(topo, SYNC, x0, 200, 3)
    assert np.max(np.abs(res.z_final - 5.0)) < 1e-9
    # a run of no slots still scores its start
    res = run_protocol(topo, SYNC, x0, 0, 3, z_star=np.zeros(1))
    assert res.e_dist.tolist() == [[25.0]]


def test_faulty_consensus_on_random_strongly_connected():
    topo = build_random_strongly_connected(5, 0.4, stream(6, 0, Role.TOPOLOGY, 0))
    x0 = np.linspace(-3.0, 9.0, 10).reshape(5, 2)
    res = run_protocol(topo, ASYNC, x0, 600, 6)
    assert np.max(np.abs(res.z_final - x0.mean(axis=0))) < 1e-9


def test_coordinates_evolve_independently():
    topo = build_cycle(3, bidirectional=True)
    x0 = np.array([[1.0, -2.0], [0.5, 3.0], [-1.0, 0.25]])
    both = run_protocol(topo, ASYNC, x0, 60, 12, record_trace=True)
    first = run_protocol(topo, ASYNC, x0[:, :1], 60, 12, record_trace=True)
    assert np.array_equal(both.trace.x[:, :, :1], first.trace.x)
    assert np.array_equal(both.trace.y, first.trace.y)


def assert_same_trace(trace, ref, case=None):
    """Every field of two traces, the recorded schedule included, and the
    sign of every zero in the state; NaN sign bits may differ."""
    for name in ("mass", "phi", "rho", "applied"):
        got, want = getattr(trace, name), getattr(ref, name)
        assert np.array_equal(got, want, equal_nan=True), (case, name)
        number = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[number]),
                              np.signbit(want[number])), (case, name)
    for name in ("wake", "arrival"):
        assert np.array_equal(getattr(trace.schedule, name),
                              getattr(ref.schedule, name)), (case, name)


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
    # node 0 has no in-arcs: its column of the in-arc table is all padding
    source = Topology(3, ((0, 1), (1, 2), (2, 1)))
    cases += [(source, bounds, 60, 14, 0, chunk) for bounds in (SYNC, ASYNC)
              for chunk in (1, 7, 128)]
    for topo, bounds, horizon, seed, run, chunk in cases:
        x0 = np.arange(2.0 * topo.n).reshape(topo.n, 2)
        ref = reference_averaging_run(topo, bounds, x0, horizon, seed,
                                      run=run)
        res = run_protocol(topo, bounds, x0, horizon, seed, runs=(run,),
                           record_trace=True, chunk=chunk)
        assert_same_trace(res.trace, ref, (topo.n, bounds))


def test_engine_reference_weld_keeps_the_sign_of_zero():
    # an in-arc that does not accept adds nothing, so a -0.0 value stays
    # -0.0 whichever runs share the batch
    topo = build_cycle(4, bidirectional=True)
    x0 = np.full((4, 2), -0.0)
    ref = reference_averaging_run(topo, ASYNC, x0, 8, 5, run=2)
    assert_same_trace(run_protocol(topo, ASYNC, x0, 8, 5, runs=(2,),
                                   record_trace=True).trace, ref)
    # the run holds zeros of both signs
    assert np.signbit(ref.x[3]).sum() == 2 and not np.signbit(ref.x[4]).any()
    for horizon in range(9):
        z = run_protocol(topo, ASYNC, x0, horizon, 5,
                         runs=(0, 1, 2, 3)).z_final[2]
        assert np.array_equal(z, ref.z[horizon]), horizon
        assert np.array_equal(np.signbit(z), np.signbit(ref.z[horizon])), \
            horizon


def test_zero_perturbation_is_plain_averaging():
    topo = build_cycle(3, bidirectional=True)
    x0 = np.arange(6.0).reshape(3, 2)
    plain = run_protocol(topo, ASYNC, x0, 80, 5, record_trace=True)
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
    assert_same_trace(res.trace, ref)
    # the mean of x0 and every bump the waking nodes took, slot by slot
    total = x0.sum(axis=0)
    expect = [total / 3]
    for wake in ref.wake:
        total = total + np.where(wake[:, None], bump, 0.0).sum(axis=0)
        expect.append(total / 3)
    assert np.array_equal(res.trace.aug_mean, np.array(expect))


def test_engine_reference_weld_with_edge_values():
    # -0.0 in x0, and injections of NaN, +-inf and -0.0 at waking and
    # sleeping nodes alike: the engine adds at waking nodes only, as the
    # oracle does, whatever the values
    cycle = build_cycle(4, bidirectional=True)
    padded = build_random_strongly_connected(6, 0.4,
                                             stream(3, 0, Role.TOPOLOGY))
    edge = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.0])
    for topo, bounds in ((cycle, ASYNC), (cycle, SYNC), (padded, ASYNC)):
        n = topo.n
        x0 = np.arange(2.0 * n).reshape(n, 2) - n
        x0[0, 0] = x0[1, 1] = -0.0
        table = edge[np.random.default_rng(n).integers(0, edge.size,
                                                       (90, n, 2))]
        # edge values every fifth slot, nothing the next, a bump otherwise
        bump = lambda k: (table[k] if k % 5 == 0 else
                          None if k % 5 == 1 else np.full((n, 2), 0.01))
        with np.errstate(invalid="ignore"):
            ref = reference_averaging_run(topo, bounds, x0, 90, 13,
                                          perturbation=bump)
            assert np.isnan(ref.x).any() and np.isinf(ref.phi).any()
            for chunk in (7, 128):
                trace = run_protocol(topo, bounds, x0, 90, 13,
                                     update=Injection(bump),
                                     record_trace=True, chunk=chunk).trace
                assert_same_trace(trace, ref, (n, chunk))


def test_ratio_estimates_stay_finite_under_faults():
    # y mass can dip but never reaches zero on a strongly connected graph
    topo = build_cycle(5, bidirectional=True)
    x0 = np.ones((5, 1))
    res = run_protocol(topo, ASYNC, x0, 300, 8, record_trace=True)
    assert np.all(res.trace.y > 0.0)
    assert np.all(np.isfinite(res.trace.z))


class SpyUpdate:
    """A wake-time update that changes nothing and records what the engine
    passes it: each slot's last wakes and estimates of run 0, copied, as
    both are rows of tables that later chunks overwrite."""

    def __init__(self):
        self.slots, self.kappa_before, self.z = [], [], []

    def chunk(self, kappa_before, slots):
        self.kappa_before += list(kappa_before[0].copy())

    def delta(self, c, k, z, wake):
        self.slots.append(k)
        self.z.append(z[0].copy())
        return None


def test_update_sees_the_traces_last_wakes_and_estimates():
    # the trace derives kappa and z, the engine computes what it passes an
    # update chunk by chunk: the two must agree at every slot
    masked = build_cycle(5, bidirectional=True)
    mask = np.random.default_rng(2).random((90, masked.m)) < 0.7
    mask[::3] = True
    cycle = build_cycle(4, bidirectional=True)
    cases = [(cycle, SYNC, None), (cycle, ASYNC, None),
             (masked, FaultBounds(3, 0, 3, wake_prob=0.5), mask)]
    for n, p, seed in ((6, 0.4, 3), (8, 0.6, 4), (12, 0.9, 5)):
        topo = build_random_strongly_connected(
            n, p, stream(seed, 0, Role.TOPOLOGY))
        cases += [(topo, bounds, None) for bounds in (SYNC, ASYNC)]
    for topo, bounds, arc_mask in cases:
        x0 = np.arange(2.0 * topo.n).reshape(topo.n, 2)
        for chunk in (1, 7, 128):
            spy = SpyUpdate()
            trace = run_protocol(topo, bounds, x0, 90, 14, mask=arc_mask,
                                 update=spy, record_trace=True,
                                 chunk=chunk).trace
            case = (topo.n, bounds, chunk)
            assert spy.slots == list(range(90)), case
            assert len(spy.kappa_before) == 90, case
            kappa, z = trace.kappa, trace.z
            for k in range(90):
                assert np.array_equal(spy.kappa_before[k], kappa[k]), \
                    (case, k)
                assert np.array_equal(spy.z[k], z[k]), (case, k)


def test_last_wakes_on_a_hand_built_table():
    # node 2 never wakes and keeps the initial timestamp, -1, throughout
    wake = np.array([[1, 0, 0],
                     [0, 1, 0],
                     [0, 0, 0],
                     [1, 1, 0]], dtype=bool)
    want = np.array([[-1, -1, -1],
                     [0, -1, -1],
                     [0, 1, -1],
                     [0, 1, -1],
                     [3, 3, -1]])
    assert np.array_equal(last_wakes(wake, 0, np.full(3, -1)), want)
    # a later window starts from each node's last wake before it
    assert np.array_equal(last_wakes(wake[2:], 2, want[2]), want[2:])
    # into a buffer, each window's prior its last row from the window before
    out = np.empty((3, 3), dtype=np.int64)
    first = last_wakes(wake[:2], 0, np.full(3, -1), out)
    assert np.shares_memory(first, out)
    assert np.array_equal(first, want[:3])
    assert np.array_equal(last_wakes(wake[2:], 2, first[-1], out), want[2:])
    # SYNC's wake tail is one slot, which kappa does not read
    schedule = ScheduleRealization(build_cycle(3), SYNC, 4,
                                   np.vstack([wake, wake[:1]]),
                                   np.full((4, 3), NOT_SENT))
    assert np.array_equal(Trace.allocate(schedule, 1).kappa, want)
    # a batch of runs: each scans along its own slot axis
    got = last_wakes(np.stack([wake, wake[::-1]]), 5,
                     np.array([[4, 4, 4], [-1, -1, -1]]))
    assert np.array_equal(got, [[[4, 4, 4], [5, 4, 4], [5, 6, 4],
                                 [5, 6, 4], [8, 8, 4]],
                                [[-1, -1, -1], [5, 5, -1], [5, 5, -1],
                                 [5, 7, -1], [8, 7, -1]]])


CHUNKS = (1, 2, 3, 7, 128, 512)


def node_mean_error(z, z_star):
    """(K+1,) squared error of the node mean of a trace's z (K+1, n, d),
    summed as the engine sums it: numpy's sum for d = 1, left to right over
    nodes otherwise."""
    if z.shape[2] == 1:
        node_sum = z.sum(axis=1)
    else:
        node_sum = z[:, 0].copy()
        for i in range(1, z.shape[1]):
            node_sum += z[:, i]
    diff = node_sum / z.shape[1] - z_star
    return np.sum(diff * diff, axis=1)


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
    mask_star, plain_star = np.full(1, 0.5), np.array([3.5, -1.0])
    assert ASYNC.max_transmission_delay == 3

    def outputs(chunk):
        opt = run_gradient_push(topo, ASYNC, obj, box_noise_model(4.0, 2),
                                led, 300, 21, runs=(5, 0, 3),
                                z_star=obj.optimum(), chunk=chunk)
        pert = run_protocol(topo, ASYNC, x0, 300, 13,
                            update=Injection(lambda k: bump),
                            record_trace=True, chunk=chunk)
        # plain averaging runs score their estimates with no update to read
        # them, in d = 1 and d = 2
        mask_run = run_protocol(masked, lossless, np.ones((5, 1)), 300, 33,
                                mask=mask, z_star=mask_star,
                                record_trace=True, chunk=chunk)
        plain = run_protocol(topo, ASYNC, x0, 300, 17, z_star=plain_star,
                             record_trace=True, chunk=chunk)
        out = {"opt.e_dist": opt.e_dist, "opt.z_final": opt.z_final,
               "pert.aug_mean": pert.trace.aug_mean}
        for name, res in (("pert", pert), ("mask", mask_run),
                          ("plain", plain)):
            for field in ("x", "y", "z", "phi_x", "phi_y", "rho_x", "rho_y",
                          "kappa", "wake", "applied"):
                out[f"{name}.{field}"] = getattr(res.trace, field)
        for name, res, star in (("mask", mask_run, mask_star),
                                ("plain", plain, plain_star)):
            assert np.array_equal(res.e_dist[0],
                                  node_mean_error(res.trace.z, star)), \
                (chunk, name)
            out[f"{name}.e_dist"] = res.e_dist
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
            got = run_protocol(topo, bounds, np.ones((topo.n, 1)), 150, 17,
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
    with pytest.raises(InconsistentScheduleError,
                       match="slot 0 accepted at slot 4"):
        engine.run_protocol(topo, SYNC, np.array([[0.0], [1.0]]), 10, 3)
