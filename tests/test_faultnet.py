"""Fault model: wake gaps, loss streaks, FIFO delays, delivery semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushsim.audit import build_delivery_indicators
from pushsim.errors import ConfigurationError, InconsistentScheduleError
from pushsim.faultnet import (LOST, NOT_SENT, FaultBounds, RealizerState,
                              ScheduleDraws, ScheduleRealization,
                              check_window_connectivity, realize_chunk,
                              realize_schedule, sample_send, sample_wake,
                              validate_mask)
from pushsim.graph import build_cycle, build_random_strongly_connected
from pushsim.rng import Role, stream


def accepted(schedule, init_timestamp, arc):
    """Send slots and processing slots of the sends `arc` accepts."""
    tau = build_delivery_indicators(schedule, init_timestamp).tau
    sends, levels = np.nonzero(tau[:, arc, :])
    return sends, sends + levels + 1


def test_derived_bounds_examples():
    for bounds, l_d, l_s in ((FaultBounds(1, 0, 1), 1, 2),
                             (FaultBounds(1, 3, 3), 3, 7),
                             (FaultBounds(3, 3, 3), 5, 17)):
        assert bounds.max_effective_delay == l_d
        assert bounds.max_receipt_gap == l_s


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
        gaps = np.diff(accepted(sched, 0, a)[1])
        assert gaps.size == 0 or gaps.max() <= l_s


def test_realizer_matches_scalar_reference():
    # drive the batched realizer and the scalar samplers from the same draws
    topo = build_cycle(2, bidirectional=True)
    bounds = FaultBounds(3, 2, 3, wake_prob=0.45, loss_prob=0.5)
    horizon = 80
    draws = ScheduleDraws(31, 4, topo.n, topo.m)
    wake_u, loss_u, delay_u = draws.draw_chunk(horizon)
    state = RealizerState.initial(1, topo.n, topo.m)
    wake, arrival = realize_chunk(bounds, topo, state, 0, horizon,
                                  wake_u[None], loss_u[None], delay_u[None])
    asleep = [0, 0]
    streak = np.zeros(topo.m, dtype=int)
    last = np.full(topo.m, -1, dtype=int)
    for k in range(horizon):
        for i in range(topo.n):
            woke, asleep[i] = sample_wake(asleep[i], wake_u[k, i], bounds)
            assert woke == wake[0, k, i]
        for a, (src, _) in enumerate(topo.arcs):
            if not wake[0, k, src]:
                continue
            arr, streak[a], last[a] = sample_send(
                k, streak[a], last[a], loss_u[k, a], delay_u[k, a], bounds)
            assert arr == arrival[0, k, a]


def test_chunked_realization_is_chunk_invariant():
    topo = build_random_strongly_connected(4, 0.5,
                                           stream(8, 0, Role.TOPOLOGY, 0))
    bounds = FaultBounds(3, 3, 3, wake_prob=0.5, loss_prob=0.3)
    one = realize_schedule(topo, bounds, 200, 8, 1, chunk=7)
    two = realize_schedule(topo, bounds, 200, 8, 1, chunk=64)
    assert np.array_equal(one.wake, two.wake)
    assert np.array_equal(one.arrival, two.arrival)


def test_classification_stale_initial_timestamp():
    # with initial timestamp 0, the slot-0 send is stale; with -1 it lands
    topo = build_cycle(2, bidirectional=True)
    bounds = FaultBounds(1, 0, 1)
    sched = realize_schedule(topo, bounds, 5, 1, 0)
    for a in range(topo.m):
        assert accepted(sched, 0, a)[0][0] == 1
        assert accepted(sched, -1, a)[0][0] == 0


def test_classification_latest_send_wins():
    # hand-built schedule: two arrivals pile up before a sleepy receiver's
    # wake and only the newest becomes the accepted delivery; a slot-0 send
    # is fresh or stale depending on the initial timestamp
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
    sends, proc = accepted(sched, 0, a01)
    assert sends.tolist() == [1, 3, 4]                    # send 0 beaten
    assert proc.tolist() == [2, 5, 8]
    sends, proc = accepted(sched, 0, a10)
    assert sends.tolist() == [2, 5]                       # send 0 stale
    assert proc.tolist() == [3, 7]
    sends, proc = accepted(sched, -1, a10)         # slot-0 send now fresh
    assert sends.tolist() == [0, 2, 5]
    assert proc.tolist() == [1, 3, 7]
    assert accepted(sched, -1, a01)[0].tolist() == [1, 3, 4]  # beaten


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
        build_delivery_indicators(sched, 0)


def test_classification_rejects_effective_delay_outside_bounds():
    # processed at 8, five slots after the send at 3 (L_d = 4); or
    # arriving, and processed, in the slot it was sent
    for send, arrival_slot in ((3, 4), (2, 2)):
        sched = inconsistent_schedule([0, 2, 8, 11], send, arrival_slot)
        with pytest.raises(InconsistentScheduleError,
                           match=r"^arc 0->1: effective delay outside "
                                 r"\[1, L_d\]$"):
            build_delivery_indicators(sched, 0)


def test_effective_delay_bounded_by_composed_limit():
    topo = build_random_strongly_connected(5, 0.5,
                                           stream(2, 0, Role.TOPOLOGY, 0))
    bounds = FaultBounds(3, 3, 3, wake_prob=0.5, loss_prob=0.3)
    l_d = bounds.max_effective_delay
    sched = realize_schedule(topo, bounds, 300, 2, 0)
    for a in range(topo.m):
        sends, proc = accepted(sched, 0, a)
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
