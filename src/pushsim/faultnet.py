"""Fault model: wake/sleep schedules, message loss, bounded delays.

A *slot* is one tick of the global clock. Per slot, each node either wakes
or sleeps, and each arc whose source woke either delivers its message after
an integer transmission delay or loses it. Worst-case structure is enforced
by streak counters:

- a node that has slept ``L_u - 1`` consecutive slots is forced awake, so
  every node wakes at least once in any window of ``L_u`` slots;
- an arc that has lost ``L_f`` consecutive attempted sends is forced to
  deliver, so at most ``L_f`` consecutive losses occur;
- transmission delays are uniform on ``{1, ..., L_del}`` and arrivals on an
  arc are clamped to be strictly increasing (FIFO). The clamp never pushes
  an arrival past ``send + L_del``.

Derived bounds: ``L_d = L_del + L_u - 1`` caps the *effective* delay (send
slot to the receiver's processing slot) and ``L_s = L_u * (L_f + 1) + L_d``
caps the gap between consecutive successful receipts on an arc.

All randomness comes from positional draw tables (one uniform per node-slot
for wakes; one loss uniform and one delay uniform per arc-slot), so a
realized schedule is a pure function of (master seed, run, topology, bounds,
horizon). Tables extend ``L_d`` slots past the protocol horizon so that the
processing slot of every in-horizon send is defined.

This module holds the fault model and its realization only: a realized
schedule says which nodes woke and when each send arrived or that it was
lost. Which arrived send a receiver accepts, and at which slot, is the
protocol's rule: the engine applies it while it runs, and
``audit.build_delivery_indicators`` rebuilds it from a recorded schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import ConfigurationError
from .graph import Topology, is_strongly_connected

NOT_SENT = -2   # source asleep, or arc masked this slot
LOST = -1       # send attempted and lost

DEFAULT_CHUNK = 128


@dataclass(frozen=True)
class FaultBounds:
    """Static fault parameters.

    wake_prob / loss_prob drive the Bernoulli part; the L-bounds drive the
    forcing counters. wake_prob = 1 with max_wake_gap = 1 is the synchronous
    limit.
    """

    max_wake_gap: int          # L_u >= 1
    max_consecutive_losses: int  # L_f >= 0
    max_transmission_delay: int  # L_del >= 1
    wake_prob: float = 1.0
    loss_prob: float = 0.0

    def __post_init__(self):
        if self.max_wake_gap < 1:
            raise ConfigurationError("max_wake_gap must be >= 1")
        if self.max_consecutive_losses < 0:
            raise ConfigurationError("max_consecutive_losses must be >= 0")
        if self.max_transmission_delay < 1:
            raise ConfigurationError("max_transmission_delay must be >= 1")
        if not 0.0 < self.wake_prob <= 1.0:
            raise ConfigurationError("wake_prob must be in (0, 1]")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ConfigurationError("loss_prob must be in [0, 1)")
        if self.loss_prob > 0.0 and self.max_consecutive_losses == 0:
            raise ConfigurationError(
                "loss_prob > 0 requires max_consecutive_losses >= 1")

    @property
    def max_effective_delay(self) -> int:
        """L_d: worst send-to-processing lag."""
        return self.max_transmission_delay + self.max_wake_gap - 1

    @property
    def max_receipt_gap(self) -> int:
        """L_s: worst gap between successful receipts on one arc."""
        return (self.max_wake_gap * (self.max_consecutive_losses + 1)
                + self.max_effective_delay)


# ---------------------------------------------------------------------------
# Reference single-entity samplers. These define the semantics; the batched
# realizer below is equivalence-tested against them.

def sample_wake(slots_asleep: int, u: float, bounds: FaultBounds
                ) -> tuple[bool, int]:
    """One node-slot decision. Returns (woke, slots_asleep')."""
    woke = slots_asleep >= bounds.max_wake_gap - 1 or u < bounds.wake_prob
    return woke, 0 if woke else slots_asleep + 1


def sample_send(slot: int, fail_streak: int, last_arrival: int,
                u_loss: float, u_delay: float, bounds: FaultBounds
                ) -> tuple[int, int, int]:
    """One attempted send on an arc whose source woke.

    Returns (arrival_slot or LOST, fail_streak', last_arrival'). The raw
    delay is uniform on {1, ..., L_del}; the FIFO clamp raises the arrival
    to one past the previous delivered arrival if needed.
    """
    forced = fail_streak >= bounds.max_consecutive_losses
    if not forced and u_loss < bounds.loss_prob:
        return LOST, fail_streak + 1, last_arrival
    raw = slot + int(rngmod.uniform_delay(np.asarray(u_delay),
                                          bounds.max_transmission_delay))
    arrival = max(raw, last_arrival + 1)
    return arrival, 0, arrival


# ---------------------------------------------------------------------------
# Batched realization.

@dataclass
class RealizerState:
    """Streak state carried across chunks; leading axis is the run batch."""

    slots_asleep: np.ndarray   # (B, n) int64
    fail_streak: np.ndarray    # (B, m) int64
    last_arrival: np.ndarray   # (B, m) int64

    @staticmethod
    def initial(batch: int, n: int, m: int) -> "RealizerState":
        return RealizerState(np.zeros((batch, n), dtype=np.int64),
                             np.zeros((batch, m), dtype=np.int64),
                             np.zeros((batch, m), dtype=np.int64))


class ScheduleDraws:
    """Positional uniform tables for one run, consumed chunk by chunk.

    Streams (see pushsim.rng): WAKE yields one uniform per (slot, node) in
    slot-major order; SEND_LOSS and SEND_DELAY yield one uniform per
    (slot, arc) in slot-major order. Chunked consumption equals one bulk
    draw, so chunk size never affects realized schedules.
    """

    def __init__(self, master_seed: int, run: int, n: int, m: int):
        self.n, self.m = n, m
        self._wake = rngmod.stream(master_seed, run, rngmod.Role.WAKE)
        self._loss = rngmod.stream(master_seed, run, rngmod.Role.SEND_LOSS)
        self._delay = rngmod.stream(master_seed, run, rngmod.Role.SEND_DELAY)

    def draw_chunk(self, slots: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        wake_u = self._wake.random((slots, self.n))
        loss_u = self._loss.random((slots, self.m))
        delay_u = self._delay.random((slots, self.m))
        return wake_u, loss_u, delay_u


def realize_chunk(bounds: FaultBounds, topology: Topology,
                  state: RealizerState, first_slot: int, horizon: int,
                  wake_u: np.ndarray, loss_u: np.ndarray,
                  delay_u: np.ndarray,
                  mask: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Realize slots [first_slot, first_slot + C) for a batch of runs.

    wake_u is (B, C, n); loss_u and delay_u are (B, C, m). Sends only occur
    for slots < horizon (the wake process continues past it). mask, if
    given, is (>= horizon, m) live-arc flags indexed by absolute slot.
    Returns (wake (B, C, n) bool, arrival (B, C, m) int64).
    """
    batch, chunk, _ = wake_u.shape
    src_idx = topology.src
    gap, lf = bounds.max_wake_gap, bounds.max_consecutive_losses
    # Outcomes that depend on the draws alone, for the whole chunk; the
    # streak recursions below stay slot by slot. Sends occur only before
    # the horizon.
    wake_out = wake_u < bounds.wake_prob
    sends = max(0, min(chunk, horizon - first_slot)) if topology.m else 0
    arrival_out = np.full((batch, chunk, topology.m), NOT_SENT,
                          dtype=np.int64)
    lossy = loss_u[:, :sends] < bounds.loss_prob
    raw = (np.arange(first_slot, first_slot + sends)[None, :, None]
           + rngmod.uniform_delay(delay_u[:, :sends],
                                  bounds.max_transmission_delay))
    for c in range(chunk):
        wake = wake_out[:, c, :]
        wake |= state.slots_asleep >= gap - 1
        state.slots_asleep = np.where(wake, 0, state.slots_asleep + 1)
        if c >= sends:
            continue
        attempted = wake[:, src_idx]
        if mask is not None:
            attempted &= mask[first_slot + c].astype(bool, copy=False)
        lost = attempted & (state.fail_streak < lf) & lossy[:, c, :]
        delivered = attempted ^ lost
        arrival = np.maximum(raw[:, c, :], state.last_arrival + 1)
        state.fail_streak = np.where(delivered, 0, state.fail_streak + lost)
        state.last_arrival = np.where(delivered, arrival, state.last_arrival)
        out = arrival_out[:, c, :]
        out[attempted] = LOST
        np.copyto(out, arrival, where=delivered)
    return wake_out, arrival_out


@dataclass
class ScheduleRealization:
    """A fully realized schedule for one run.

    wake covers ``horizon + L_d`` slots; arrival covers ``horizon`` slots
    (entries NOT_SENT / LOST / arrival slot, arrivals are >= slot + 1).
    """

    topology: Topology
    bounds: FaultBounds
    horizon: int
    wake: np.ndarray      # (horizon + L_d, n) bool
    arrival: np.ndarray   # (horizon, m) int64


def realize_schedule(topology: Topology, bounds: FaultBounds, horizon: int,
                     master_seed: int, run: int = 0,
                     mask: np.ndarray | None = None,
                     chunk: int = DEFAULT_CHUNK) -> ScheduleRealization:
    """Materialize one run's schedule (wake table extended by L_d slots)."""
    if mask is not None:
        validate_mask(topology, bounds, mask, horizon)
    extended = horizon + bounds.max_effective_delay
    draws = ScheduleDraws(master_seed, run, topology.n, topology.m)
    state = RealizerState.initial(1, topology.n, topology.m)
    wakes, arrivals = [], []
    done = 0
    while done < extended:
        step = min(chunk, extended - done)
        wake_u, loss_u, delay_u = draws.draw_chunk(step)
        w, a = realize_chunk(bounds, topology, state, done, horizon,
                             wake_u[None], loss_u[None], delay_u[None], mask)
        wakes.append(w[0])
        arrivals.append(a[0])
        done += step
    wake = np.concatenate(wakes, axis=0)
    arrival = np.concatenate(arrivals, axis=0)[:horizon]
    return ScheduleRealization(topology, bounds, horizon, wake, arrival)


def validate_mask(topology: Topology, bounds: FaultBounds,
                  mask: np.ndarray, horizon: int) -> None:
    """Arc masks model link removal and are only sound without losses."""
    if bounds.loss_prob != 0.0 or bounds.max_consecutive_losses != 0:
        raise ConfigurationError(
            "arc masks require loss_prob = 0 and max_consecutive_losses = 0")
    if mask.shape[0] < horizon or mask.shape[1] != topology.m:
        raise ConfigurationError(
            f"mask shape {mask.shape} does not cover (horizon={horizon}, "
            f"m={topology.m})")


def check_window_connectivity(topology: Topology, mask: np.ndarray,
                              horizon: int, window: int) -> None:
    """Every window of `window` consecutive slots must union to a strongly
    connected arc set."""
    arcs = topology.arcs
    for t in range(horizon - window + 1):
        live = mask[t:t + window].any(axis=0)
        sub = Topology(topology.n,
                       tuple(a for a, keep in zip(arcs, live) if keep))
        if not is_strongly_connected(sub):
            raise ConfigurationError(
                f"arc-mask window starting at slot {t} is not strongly "
                f"connected")
