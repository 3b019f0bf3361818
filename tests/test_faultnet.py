"""Fault model: wake gaps, loss streaks, FIFO delays, delivery semantics."""

import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pushsim import rng as rngmod
from pushsim.audit import build_delivery_indicators
from pushsim.engine import run_protocol
from pushsim.errors import ConfigurationError, InconsistentScheduleError
from pushsim.faultnet import (CHUNK_CELLS, LOST, NOT_SENT, FaultBounds,
                              RealizerState, ScheduleDraws,
                              ScheduleRealization, check_window_connectivity,
                              chunk_slots, realize_chunk, realize_schedule,
                              sample_send, sample_wake, validate_mask)
from pushsim.graph import build_cycle, build_random_strongly_connected
from pushsim.harness import ExperimentConfig
from pushsim.rng import Role, stream

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def accepted(schedule, arc):
    """Send slots and processing slots of the sends `arc` accepts."""
    level = build_delivery_indicators(schedule)[:, arc]
    sends = np.flatnonzero(level)
    return sends, sends + level[sends]


def test_derived_bounds_examples():
    for bounds, l_d, l_s in ((FaultBounds(1, 0, 1), 1, 2),
                             (FaultBounds(1, 3, 3), 3, 7),
                             (FaultBounds(3, 3, 3), 5, 17)):
        assert bounds.max_effective_delay == l_d
        assert bounds.max_receipt_gap == l_s


def test_fixed_outcomes_follow_from_the_bounds():
    # (wake, loss, delay) fixed by: L_u = 1 or wake_prob = 1; loss_prob =
    # 0; L_del = 1
    for bounds, fixed in (
            (FaultBounds(1, 0, 1), (True, True, True)),
            (FaultBounds(1, 2, 2, wake_prob=0.5, loss_prob=0.4),
             (True, False, False)),
            (FaultBounds(3, 2, 3, wake_prob=1.0, loss_prob=0.3),
             (True, False, False)),
            (FaultBounds(2, 0, 1, wake_prob=0.5), (False, True, True)),
            (FaultBounds(3, 2, 1, wake_prob=0.5, loss_prob=0.3),
             (False, False, True))):
        assert (bounds.fixed_wake, bounds.fixed_loss,
                bounds.fixed_delay) == fixed


def test_bounds_validation():
    with pytest.raises(ConfigurationError):
        FaultBounds(0, 0, 1)
    with pytest.raises(ConfigurationError):
        FaultBounds(1, 0, 0)
    with pytest.raises(ConfigurationError):
        FaultBounds(1, -1, 1)
    with pytest.raises(ConfigurationError):
        FaultBounds(1, 0, 1, wake_prob=1.5)
    with pytest.raises(ConfigurationError):
        # losses possible but streak cap says none allowed
        FaultBounds(1, 0, 1, loss_prob=0.5)


def test_forced_wake_at_gap():
    bounds = FaultBounds(3, 0, 1, wake_prob=0.5)
    asleep = 0
    wakes = []
    for _ in range(9):
        woke, asleep = sample_wake(asleep, 0.99, bounds)   # never spontaneous
        wakes.append(woke)
    # only the forced wake at the gap cap fires
    assert wakes == [False, False, True] * 3


def test_wake_prob_bounds():
    with pytest.raises(ConfigurationError):
        FaultBounds(3, 0, 1, wake_prob=0.0)
    with pytest.raises(ConfigurationError):
        FaultBounds(3, 1, 1, loss_prob=1.0)


def test_forced_delivery_at_streak_cap():
    bounds = FaultBounds(1, 2, 1, loss_prob=0.9)
    streak, last = 0, -1
    outcomes = []
    for slot in range(9):
        arrival, streak, last = sample_send(slot, streak, last, 0.5, 0.0,
                                            bounds)                # u < 0.9
        outcomes.append(arrival != LOST)
    assert outcomes == [False, False, True] * 3


def test_fifo_clamp_example():
    # sends at 2 and 3 with raw delays 3 and 1: the second would land at 4,
    # before the first's 5, so it is pushed to 6
    bounds = FaultBounds(1, 0, 3)
    a1, _, last = sample_send(2, 0, -1, 1.0, 0.9, bounds)   # raw 2+3
    assert a1 == 5
    a2, _, _ = sample_send(3, 0, last, 1.0, 0.0, bounds)    # raw 3+1
    assert a2 == 6


def test_clamped_arrival_never_exceeds_send_plus_max_delay():
    # consecutive sends: worst clamp still lands within L_del of the send
    bounds = FaultBounds(1, 0, 4)
    last = -1
    for slot in range(40):
        arrival, _, last = sample_send(slot, 0, last, 1.0, 0.97, bounds)
        assert slot + 1 <= arrival <= slot + bounds.max_transmission_delay


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(0, 3),
       st.integers(1, 3))
def test_realized_schedules_respect_bounds(seed, l_u, l_f, l_del):
    bounds = FaultBounds(l_u, l_f, l_del, wake_prob=0.4,
                         loss_prob=0.5 if l_f else 0.0)
    topo = build_cycle(3, bidirectional=True)
    horizon = 120
    sched = realize_schedule(topo, bounds, horizon, seed, 0)
    l_s = bounds.max_receipt_gap
    # wake gaps within L_u on the extended table
    for i in range(topo.n):
        wakes = np.flatnonzero(sched.wake[:, i])
        assert wakes[0] <= l_u - 1
        assert np.all(np.diff(wakes) <= l_u)
    sent = sched.arrival[:horizon] >= 0
    arrivals = sched.arrival[:horizon]
    for a in range(topo.m):
        ks = np.flatnonzero(sent[:, a])
        if ks.size == 0:
            continue
        arr = arrivals[ks, a]
        assert np.all(arr > ks)
        assert np.all(arr <= ks + l_del)       # FIFO clamp cannot overshoot
        assert np.all(np.diff(arr) >= 1)       # FIFO order
    # accepted processing gaps within L_s
    for a in range(topo.m):
        gaps = np.diff(accepted(sched, a)[1])
        assert gaps.size == 0 or gaps.max() <= l_s


def test_realizer_matches_scalar_reference():
    # drive the realizer and the scalar samplers from the same draws; a
    # batch of one run takes the closed-form path, two runs the slot loop
    topo = build_cycle(2, bidirectional=True)
    bounds = FaultBounds(3, 2, 3, wake_prob=0.45, loss_prob=0.5)
    horizon = 80
    for batch in (1, 2):
        tables = ScheduleDraws.draw_batch(
            [ScheduleDraws(31, 4 + b, topo.n, topo.m, bounds)
             for b in range(batch)], horizon)
        state = RealizerState.initial(batch, topo.n, topo.m)
        wake, arrival = realize_chunk(bounds, topo, state, 0, horizon,
                                      *tables)
        for b, (wake_u, loss_u, delay_u) in enumerate(zip(*tables)):
            asleep = [0, 0]
            streak = np.zeros(topo.m, dtype=int)
            last = np.full(topo.m, -1, dtype=int)
            for k in range(horizon):
                for i in range(topo.n):
                    woke, asleep[i] = sample_wake(asleep[i], wake_u[k, i],
                                                  bounds)
                    assert woke == wake[b, k, i]
                for a, (src, _) in enumerate(topo.arcs):
                    if not wake[b, k, src]:
                        continue
                    arr, streak[a], last[a] = sample_send(
                        k, streak[a], last[a], loss_u[k, a], delay_u[k, a],
                        bounds)
                    assert arr == arrival[b, k, a]
            assert state.slots_asleep[b].tolist() == asleep
            assert np.array_equal(state.fail_streak[b], streak)


REALIZER_REGIMES = {
    "sync": (FaultBounds(1, 0, 1), False),
    "quad-async": (FaultBounds(3, 3, 3, wake_prob=0.5, loss_prob=0.3), False),
    "lossless-masked": (FaultBounds(3, 0, 2, wake_prob=0.6), True),
    "lf1-loss0.5": (FaultBounds(2, 1, 2, wake_prob=0.7, loss_prob=0.5),
                    False),
    "lu5-wake0.05": (FaultBounds(5, 2, 3, wake_prob=0.05, loss_prob=0.2),
                     False),
    "loss0.9-lf6": (FaultBounds(2, 6, 4, wake_prob=0.8, loss_prob=0.9),
                    False),
    # wakes, losses or delays fixed by the bounds, alone or together
    "lu1-loss0.4": (FaultBounds(1, 2, 2, loss_prob=0.4), False),
    "wake1-loss0.3": (FaultBounds(3, 2, 3, wake_prob=1.0, loss_prob=0.3),
                      False),
    "lossless-delay1": (FaultBounds(2, 0, 1, wake_prob=0.5), False),
    "lossless-masked-wake0.5": (FaultBounds(3, 0, 3, wake_prob=0.5), True),
    "delay1-loss0.3": (FaultBounds(3, 2, 1, wake_prob=0.5, loss_prob=0.3),
                       False),
}


def realize_in_chunks(topo, bounds, horizon, runs, chunk, mask):
    """Realize `runs` as one batch over horizon + L_d slots, `chunk` slots
    per call. Returns the wake and arrival tables and, per chunk, the
    carried state."""
    draws = [ScheduleDraws(5, r, topo.n, topo.m, bounds) for r in runs]
    state = RealizerState.initial(len(runs), topo.n, topo.m)
    wakes, arrivals, states = [], [], []
    extended = horizon + bounds.max_effective_delay
    for first in range(0, extended, chunk):
        tables = ScheduleDraws.draw_batch(draws,
                                          min(chunk, extended - first))
        wake, arrival = realize_chunk(bounds, topo, state, first, horizon,
                                      *tables, mask)
        wakes.append(wake)
        arrivals.append(arrival)
        states.append((state.slots_asleep, state.fail_streak,
                       state.last_arrival))
    return (np.concatenate(wakes, axis=1), np.concatenate(arrivals, axis=1),
            states)


@pytest.mark.parametrize("regime", REALIZER_REGIMES)
def test_single_run_scans_match_the_slot_loop(regime):
    # one run alone is realized by whole-chunk scans, the same run in a
    # batch of two by the slot loop: tables and carried state must agree
    # bit for bit. Horizon 150 ends mid-chunk at chunks 7 and 128, and the
    # wake table runs L_d slots past it.
    bounds, masked = REALIZER_REGIMES[regime]
    horizon = 150
    for n in range(2, 11):
        for topo in (build_cycle(n, bidirectional=True),
                     build_random_strongly_connected(
                         n, 0.4, stream(n, 0, Role.TOPOLOGY, 0))):
            mask = None
            if masked:
                mask = stream(n, 0, Role.TOPOLOGY, 1).random(
                    (horizon, topo.m)) < 0.7
            for chunk in (1, 7, 128):
                alone = realize_in_chunks(topo, bounds, horizon, [n], chunk,
                                          mask)
                batch = realize_in_chunks(topo, bounds, horizon, [n, n + 1],
                                          chunk, mask)
                assert np.array_equal(alone[0][0], batch[0][0])
                assert np.array_equal(alone[1][0], batch[1][0])
                for one, both in zip(alone[2], batch[2]):
                    for a, b in zip(one, both):
                        assert np.array_equal(a[0], b[0])


def scalar_schedule(topo, bounds, horizon, run, mask):
    """Realize `run` with the scalar samplers, on uniforms drawn straight
    from its WAKE, SEND_LOSS and SEND_DELAY streams whether or not the
    bounds fix that role. Returns the wake and arrival tables over
    horizon + L_d slots and the streak state after every slot."""
    extended = horizon + bounds.max_effective_delay
    wake_u = stream(5, run, Role.WAKE).random((extended, topo.n))
    loss_u = stream(5, run, Role.SEND_LOSS).random((extended, topo.m))
    delay_u = stream(5, run, Role.SEND_DELAY).random((extended, topo.m))
    wake = np.zeros((extended, topo.n), dtype=bool)
    arrival = np.full((extended, topo.m), NOT_SENT, dtype=np.int64)
    # RealizerState starts every last arrival at 0, which clamps nothing
    # since every arrival is >= 1
    asleep = np.zeros(topo.n, dtype=np.int64)
    streak = np.zeros(topo.m, dtype=np.int64)
    last = np.zeros(topo.m, dtype=np.int64)
    states = []
    for k in range(extended):
        for i in range(topo.n):
            wake[k, i], asleep[i] = sample_wake(asleep[i], wake_u[k, i],
                                                bounds)
        for a, (src, _) in enumerate(topo.arcs):
            if k < horizon and wake[k, src] and (mask is None or mask[k, a]):
                arrival[k, a], streak[a], last[a] = sample_send(
                    k, streak[a], last[a], loss_u[k, a], delay_u[k, a],
                    bounds)
        states.append((asleep.copy(), streak.copy(), last.copy()))
    return wake, arrival, states


@pytest.mark.parametrize("regime", REALIZER_REGIMES)
def test_realizer_matches_scalar_samplers_on_raw_streams(regime):
    # the realizer reads ScheduleDraws tables, which hold no draws for the
    # roles the bounds fix; the scalar samplers read every role's stream.
    # Both paths (B = 1 and 2), chunks 1, 7 and 128, horizon 150 mid-chunk;
    # state compared after every chunk.
    bounds, masked = REALIZER_REGIMES[regime]
    topo = build_random_strongly_connected(5, 0.4,
                                           stream(3, 0, Role.TOPOLOGY, 0))
    horizon = 150
    extended = horizon + bounds.max_effective_delay
    mask = None
    if masked:
        mask = stream(3, 0, Role.TOPOLOGY, 1).random((horizon, topo.m)) < 0.7
    runs = (7, 8)
    reference = [scalar_schedule(topo, bounds, horizon, r, mask)
                 for r in runs]
    for batch in (1, 2):
        for chunk in (1, 7, 128):
            wake, arrival, states = realize_in_chunks(
                topo, bounds, horizon, runs[:batch], chunk, mask)
            ends = [min(first + chunk, extended)
                    for first in range(0, extended, chunk)]
            assert len(ends) == len(states)
            for b, (ref_wake, ref_arrival, ref_states) in enumerate(
                    reference[:batch]):
                assert np.array_equal(wake[b], ref_wake)
                assert np.array_equal(arrival[b], ref_arrival)
                for end, state in zip(ends, states):
                    for got, want in zip(state, ref_states[end - 1]):
                        assert np.array_equal(got[b], want)


def test_run_protocol_draws_only_what_the_bounds_leave_to_chance(
        monkeypatch):
    # a synchronous lossless network opens no schedule stream; quad_async's
    # bounds open all three per run
    opened = []
    real_stream = rngmod.stream

    def recording_stream(master_seed, run=0, role=0, entity=0):
        opened.append((run, Role(role)))
        return real_stream(master_seed, run, role, entity)

    monkeypatch.setattr(rngmod, "stream", recording_stream)
    schedule_roles = {Role.WAKE, Role.SEND_LOSS, Role.SEND_DELAY}
    topo = build_cycle(4, bidirectional=True)
    x0 = np.zeros((topo.n, 1))
    quad_async = ExperimentConfig.from_file(
        CONFIGS / "quad_async_cycle10.json").faults
    for bounds, roles in ((FaultBounds(1, 0, 1), set()),
                          (quad_async, schedule_roles)):
        opened.clear()
        run_protocol(topo, bounds, x0, 40, 9, runs=(0, 1, 2))
        for run in (0, 1, 2):
            got = [role for r, role in opened
                   if r == run and role in schedule_roles]
            assert sorted(got) == sorted(roles)


def test_chunked_realization_is_chunk_invariant():
    topo = build_random_strongly_connected(4, 0.5,
                                           stream(8, 0, Role.TOPOLOGY, 0))
    bounds = FaultBounds(3, 3, 3, wake_prob=0.5, loss_prob=0.3)
    one = realize_schedule(topo, bounds, 200, 8, 1, chunk=7)
    for chunk in (64, None):
        two = realize_schedule(topo, bounds, 200, 8, 1, chunk=chunk)
        assert np.array_equal(one.wake, two.wake), chunk
        assert np.array_equal(one.arrival, two.arrival), chunk


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 1000), st.integers(1, 200), st.integers(0, 2000))
@example(1, 5, 12)             # one run: a whole 500-slot audit in one chunk
@example(50, 50, 785)          # a dense graph past the budget: one slot
@example(1, CHUNK_CELLS, 1)
def test_chunk_slots_keeps_a_chunk_within_the_cell_budget(batch, n, m):
    # the most slots that fit, or one slot where none fits
    cells = batch * (n + m)
    slots = chunk_slots(batch, n, m)
    assert slots >= 1
    if slots > 1:
        assert slots * cells <= CHUNK_CELLS
    assert (slots + 1) * cells > CHUNK_CELLS


@pytest.mark.parametrize("chunk", [0, -3])
def test_chunk_lengths_below_one_are_rejected(chunk):
    # these failed with a bare numpy ValueError (B = 1) or IndexError
    # (B = 2) from deep in the chunk pass
    topo = build_cycle(3, bidirectional=True)
    bounds = FaultBounds(2, 1, 2, wake_prob=0.5, loss_prob=0.3)
    for runs in ((0,), (0, 1)):
        with pytest.raises(ConfigurationError, match=r"^chunk: must be >= 1$"):
            run_protocol(topo, bounds, np.ones((3, 1)), 20, 4, runs=runs,
                         chunk=chunk)
    with pytest.raises(ConfigurationError, match=r"^chunk: must be >= 1$"):
        realize_schedule(topo, bounds, 20, 4, chunk=chunk)


def test_an_empty_batch_is_rejected():
    # failed with a bare IndexError when the draw tables were stacked
    with pytest.raises(ConfigurationError, match=r"^runs: at least one run"):
        run_protocol(build_cycle(3), FaultBounds(1, 0, 1), np.ones((3, 1)),
                     10, 1, runs=())


def test_classification_accepts_slot_zero_sends():
    # receivers start at timestamp -1, so the slot-0 send lands
    topo = build_cycle(2, bidirectional=True)
    bounds = FaultBounds(1, 0, 1)
    sched = realize_schedule(topo, bounds, 5, 1, 0)
    for a in range(topo.m):
        assert accepted(sched, a)[0][0] == 0


def test_classification_latest_send_wins():
    # hand-built schedule: two arrivals pile up before a sleepy receiver's
    # wake and only the newest becomes the accepted delivery
    topo = build_cycle(2)                          # arcs (0,1),(1,0)
    bounds = FaultBounds(3, 0, 2)                  # L_d = 4
    horizon = 8
    wake = np.zeros((horizon + 4, topo.n), dtype=bool)
    wake[:, 0] = True                              # node 0 awake every slot
    wake[[0, 2, 5, 8, 11], 1] = True               # gaps within L_u = 3
    arrival = np.full((horizon, topo.m), NOT_SENT, dtype=np.int64)
    a01 = topo.arcs.index((0, 1))
    a10 = topo.arcs.index((1, 0))
    arrival[[0, 1, 3, 4], a01] = [1, 2, 5, 6]      # 1 and 2 coalesce at 2
    arrival[[0, 2, 5], a10] = [1, 3, 7]
    sched = ScheduleRealization(topo, bounds, horizon, wake, arrival)
    sends, proc = accepted(sched, a01)
    assert sends.tolist() == [1, 3, 4]                    # send 0 beaten
    assert proc.tolist() == [2, 5, 8]
    sends, proc = accepted(sched, a10)
    assert sends.tolist() == [0, 2, 5]
    assert proc.tolist() == [1, 3, 7]


def inconsistent_schedule(receiver_wakes, send, arrival_slot):
    """Two-node cycle, L_d = 4, horizon 8: node 0 wakes every slot, node 1
    at `receiver_wakes`; one send on arc 0->1."""
    topo = build_cycle(2)
    wake = np.zeros((12, 2), dtype=bool)
    wake[:, 0] = True
    wake[receiver_wakes, 1] = True
    arrival = np.full((8, topo.m), NOT_SENT, dtype=np.int64)
    arrival[send, topo.arcs.index((0, 1))] = arrival_slot
    return ScheduleRealization(topo, FaultBounds(3, 0, 2), 8, wake, arrival)


def test_classification_rejects_arrival_past_wake_table():
    # node 1 never wakes after slot 8, so an arrival at 9 has no
    # processing slot
    sched = inconsistent_schedule([0, 2, 5, 8], 7, 9)
    with pytest.raises(InconsistentScheduleError,
                       match=r"^arc 0->1: arrival past the realized wake "
                             r"table$"):
        build_delivery_indicators(sched)


def test_classification_rejects_effective_delay_outside_bounds():
    # processed at 8, five slots after the send at 3 (L_d = 4); or
    # arriving, and processed, in the slot it was sent
    for send, arrival_slot in ((3, 4), (2, 2)):
        sched = inconsistent_schedule([0, 2, 8, 11], send, arrival_slot)
        with pytest.raises(InconsistentScheduleError,
                           match=r"^arc 0->1: effective delay outside "
                                 r"\[1, L_d\]$"):
            build_delivery_indicators(sched)


def test_effective_delay_bounded_by_composed_limit():
    topo = build_random_strongly_connected(5, 0.5,
                                           stream(2, 0, Role.TOPOLOGY, 0))
    bounds = FaultBounds(3, 3, 3, wake_prob=0.5, loss_prob=0.3)
    l_d = bounds.max_effective_delay
    sched = realize_schedule(topo, bounds, 300, 2, 0)
    for a in range(topo.m):
        sends, proc = accepted(sched, a)
        lags = proc - sends
        assert lags.size == 0 or (lags.min() >= 1 and lags.max() <= l_d)


def test_mask_requires_lossless():
    topo = build_cycle(3, bidirectional=True)
    mask = np.ones((50, topo.m), dtype=bool)
    with pytest.raises(ConfigurationError):
        validate_mask(topo, FaultBounds(2, 1, 2, loss_prob=0.2), mask, 50)
    validate_mask(topo, FaultBounds(2, 0, 2), mask, 50)


def test_window_connectivity_check():
    topo = build_cycle(4)        # unidirectional: all arcs needed
    horizon, window = 30, 3
    mask = np.zeros((horizon, topo.m), dtype=bool)
    for k in range(horizon):
        mask[k, k % 3 :: 3] = True            # rotate arc groups
    check_window_connectivity(topo, mask, horizon, window)
    bad = mask.copy()
    bad[:, 2] = False                          # arc 2 never appears
    with pytest.raises(ConfigurationError):
        check_window_connectivity(topo, bad, horizon, window)


def test_masked_arcs_never_send():
    topo = build_cycle(3, bidirectional=True)
    bounds = FaultBounds(2, 0, 2, wake_prob=0.7)
    horizon = 60
    mask = np.ones((horizon, topo.m), dtype=bool)
    mask[10:20, 0] = False
    sched = realize_schedule(topo, bounds, horizon, 77, 0, mask=mask)
    assert np.all(sched.arrival[10:20, 0] < 0)
