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
processing slot of every in-horizon send is defined. A role whose outcome
the bounds fix is not drawn at all: ``L_u = 1`` or ``wake_prob = 1`` wakes
every node every slot, ``loss_prob = 0`` loses nothing and ``L_del = 1``
delays every send by one slot (``FaultBounds.fixed_wake``, ``fixed_loss``,
``fixed_delay``). Its table reads u = 0.0, which maps to that outcome, and
both realizer paths below skip the streak loop or scan it would have
needed. Each role has its own stream, so skipping one moves no draw of
another, and the schedule stays the same pure function of the same five
inputs.

A single run (``realize_schedule``, a recorded trace, the reference
simulator) is realized in closed form, by whole-chunk scans; a batch of
runs by a loop over slots. Both are bit-identical to the scalar samplers
``sample_wake`` and ``sample_send``. Both paths exist because each wins on
its own side. At the chunk lengths of ``chunk_slots``, one run's scans
took a ninth of the loop's time on quad_async's 10-cycle and a sixteenth
on audit_small's 5-node graph. The same scans over a batch took longer
than the loop at every batch the benchmark and the gates run (time of the
scans over the loop's): 1.48x at quad_async (B = 50), 2.02x at A6
(B = 200), 2.36x at A8 (B = 100), 5.9x at svm_sync (B = 5, outcomes fixed
by the bounds) and 2.30x on a dense n = 50 graph (B = 50). They won only
at small batches with drawn outcomes: 0.72x at B = 10 and 0.18x at B = 2.

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

# Cells (run x slot x node or arc) one chunk spans: its draw, wake and
# arrival tables and the engine's per-slot operands each hold this many
# entries or a small multiple of it, whatever the batch (see chunk_slots).
CHUNK_CELLS = 1 << 16


def chunk_slots(batch: int, n: int, m: int) -> int:
    """Slots per chunk for `batch` runs on n nodes and m arcs: the most that
    keep a chunk within CHUNK_CELLS cells, and at least one."""
    return max(1, CHUNK_CELLS // (batch * (n + m)))


def resolve_chunk(chunk: int | None, batch: int, n: int, m: int) -> int:
    """A caller's chunk length, checked; None stands for chunk_slots."""
    if chunk is None:
        return chunk_slots(batch, n, m)
    if chunk < 1:
        raise ConfigurationError("chunk: must be >= 1")
    return chunk


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

    # Outcomes the bounds alone decide, for every slot: no uniform is drawn
    # for them (see ScheduleDraws).

    @property
    def fixed_wake(self) -> bool:
        """Every node wakes every slot."""
        return self.max_wake_gap == 1 or self.wake_prob == 1.0

    @property
    def fixed_loss(self) -> bool:
        """No send is ever lost."""
        return self.loss_prob == 0.0

    @property
    def fixed_delay(self) -> bool:
        """Every delivered send arrives one slot after it was sent."""
        return self.max_transmission_delay == 1

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
# Reference single-entity samplers. These define the semantics; both paths
# of the realizer below are equivalence-tested against them.

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

    A role whose outcome the bounds fix (`FaultBounds.fixed_wake`,
    `fixed_loss`, `fixed_delay`) opens no stream: its table is a read-only
    zero-stride view of u = 0.0, which maps to that fixed outcome (0 is
    below any wake_prob, not below a zero loss_prob, and gives delay 1).
    Each role has its own Philox stream, so the others' draws do not move,
    and a schedule stays a pure function of (seed, run, topology, bounds,
    horizon).
    """

    def __init__(self, master_seed: int, run: int, n: int, m: int,
                 bounds: FaultBounds):
        self.n, self.m = n, m
        self._gens = tuple(
            None if fixed else rngmod.stream(master_seed, run, role)
            for role, fixed in ((rngmod.Role.WAKE, bounds.fixed_wake),
                                (rngmod.Role.SEND_LOSS, bounds.fixed_loss),
                                (rngmod.Role.SEND_DELAY, bounds.fixed_delay)))

    @staticmethod
    def buffers(draws: list["ScheduleDraws"], slots: int
                ) -> tuple[np.ndarray | None, ...]:
        """Flat buffers for draw_batch's `out`, with room for `slots` rows
        of every drawn role's table; None for a role the bounds fix."""
        first = draws[0]
        return tuple(None if gen is None else
                     np.empty(len(draws) * slots * cols)
                     for gen, cols in zip(first._gens,
                                          (first.n, first.m, first.m)))

    @staticmethod
    def draw_batch(draws: list["ScheduleDraws"], slots: int,
                   out: tuple[np.ndarray | None, ...] | None = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next `slots` rows of every run's wake, loss and delay tables,
        stacked (B, C, n) and (B, C, m) as they are drawn: fresh arrays, or
        views of the buffers `out` from ``buffers``."""
        first = draws[0]
        tables = []
        for role, cols in enumerate((first.n, first.m, first.m)):
            shape = (len(draws), slots, cols)
            if first._gens[role] is None:
                table = np.broadcast_to(0.0, shape)
            else:
                table = (np.empty(shape) if out is None else
                         out[role][:len(draws) * slots * cols].reshape(shape))
                for b, run in enumerate(draws):
                    run._gens[role].random(out=table[b])
            tables.append(table)
        return tuple(tables)


def realize_chunk(bounds: FaultBounds, topology: Topology,
                  state: RealizerState, first_slot: int, horizon: int,
                  wake_u: np.ndarray, loss_u: np.ndarray,
                  delay_u: np.ndarray,
                  mask: np.ndarray | None = None,
                  out: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Realize slots [first_slot, first_slot + C) for a batch of runs.

    wake_u is (B, C, n); loss_u and delay_u are (B, C, m). Sends only occur
    for slots < horizon (the wake process continues past it). mask, if
    given, is (>= horizon, m) live-arc flags indexed by absolute slot.
    Returns (wake (B, C, n) bool, arrival (B, C, m) int64), as views of
    slot-major memory, which the engine's per-slot reads want: fresh
    arrays, or the first C rows of `out`, slot-major buffers
    (>= C, B, n) bool and (>= C, B, m) int64.

    A batch of one run is realized by the whole-chunk scans of
    `_realize_run`, a larger batch by the slot loop below (the module
    docstring says why both exist).
    """
    batch, chunk, n = wake_u.shape
    src_idx = topology.src
    gap, lf = bounds.max_wake_gap, bounds.max_consecutive_losses
    # Outcomes that depend on the draws alone, for the whole chunk, in
    # slot-major memory (C, B, ...) and returned as (B, C, ...) views; the
    # streak recursions below stay slot by slot, except where the bounds fix
    # their outcome. Sends occur only before the horizon.
    if out is None:
        out = (np.empty((chunk, batch, n), dtype=bool),
               np.empty((chunk, batch, topology.m), dtype=np.int64))
    wake, arrival = out[0][:chunk], out[1][:chunk]
    arrival.fill(NOT_SENT)
    if bounds.fixed_wake:
        wake.fill(True)
    else:
        np.less(wake_u.swapaxes(0, 1), bounds.wake_prob, out=wake)
    sends = max(0, min(chunk, horizon - first_slot)) if topology.m else 0
    live = (None if mask is None else
            mask[first_slot:first_slot + sends].astype(bool, copy=False))
    slots = np.arange(first_slot, first_slot + sends)[:, None, None]
    # Each send's raw arrival: in the slot loop, where its final entry will
    # be.
    head = (np.empty((sends, batch, topology.m), dtype=np.int64)
            if batch == 1 else arrival[:sends])
    if bounds.fixed_delay:
        head.fill(1)
    else:
        rngmod.uniform_delay(delay_u[:, :sends].swapaxes(0, 1),
                             bounds.max_transmission_delay, out=head)
    head += slots
    result = wake.swapaxes(0, 1), arrival.swapaxes(0, 1)
    if batch == 1:
        _realize_run(bounds, src_idx, state, wake[:, 0],
                     loss_u[0, :sends] < bounds.loss_prob, head[:, 0], live,
                     arrival[:, 0])
        return result
    if bounds.fixed_wake:
        state.slots_asleep = np.zeros_like(state.slots_asleep)
    else:
        # A node is forced awake once it has slept L_u - 1 slots, i.e. when
        # its last wake is L_u or more slots back. Stamps are last wake +
        # L_u, so the carried state (a wake at slot -1 - slots_asleep) stays
        # >= 0 and a running max records each wake.
        stamp = gap - 1 - state.slots_asleep
        forced = np.empty_like(stamp, dtype=bool)
        woke = np.empty_like(stamp)
        for c in range(chunk):
            np.less_equal(stamp, c, out=forced)
            wake[c] |= forced
            np.multiply(wake[c], c + gap, out=woke)
            np.maximum(stamp, woke, out=stamp)
        state.slots_asleep = chunk - 1 + gap - stamp
    if sends == 0:
        return result
    attempted = wake[:sends].take(src_idx, axis=2)
    if live is not None:
        attempted &= live[:, None, :]
    if bounds.fixed_loss and bounds.fixed_delay:
        # Every attempt arrives the next slot, after any earlier arrival on
        # its arc: no streak moves and the FIFO clamp never binds.
        delivered = attempted
        state.last_arrival = np.maximum(
            state.last_arrival, head.max(axis=0, where=attempted, initial=-1))
    else:
        # Per slot, only the streaks and the FIFO clamp; the arrival table
        # is composed afterwards from the attempts, the deliveries and each
        # send's clamped arrival.
        lossy = loss_u[:, :sends].swapaxes(0, 1) < bounds.loss_prob
        lossy &= attempted
        delivered = np.empty_like(attempted)
        streak, last = state.fail_streak, state.last_arrival
        for c in range(sends):
            lost = lossy[c] & (streak < lf)
            np.logical_xor(attempted[c], lost, out=delivered[c])
            np.maximum(head[c], last + 1, out=head[c])
            streak = np.where(delivered[c], 0, streak + lost)
            last = np.where(delivered[c], head[c], last)
        state.fail_streak, state.last_arrival = streak, last
    # NOT_SENT + 1 = LOST where attempted, and the arrival where delivered
    head -= LOST
    head *= delivered
    head += attempted
    head += NOT_SENT
    return result


def _realize_run(bounds: FaultBounds, src_idx: np.ndarray,
                 state: RealizerState, wake: np.ndarray, lossy: np.ndarray,
                 raw: np.ndarray, live: np.ndarray | None,
                 out: np.ndarray) -> None:
    """The slot loop of `realize_chunk` for one run, as scans over the chunk.

    wake is the (C, n) Bernoulli wake table and out the (C, m) arrival
    table, both completed in place; lossy, raw and live are (S, m) for the
    S slots that send. state's (1, n) and (1, m) arrays are replaced.
    """
    chunk, sends = wake.shape[0], raw.shape[0]
    slots = np.arange(chunk)[:, None]
    if bounds.fixed_wake:
        state.slots_asleep = np.zeros_like(state.slots_asleep)
    else:
        # A node without a Bernoulli wake is forced awake when a positive
        # multiple of L_u slots has passed since its last Bernoulli wake;
        # the carried state counts as a wake at slot -1 - slots_asleep.
        carried = -1 - state.slots_asleep
        last = np.maximum.accumulate(np.where(wake, slots, carried), axis=0)
        since = slots - np.concatenate([carried, last[:-1]])
        wake |= since % bounds.max_wake_gap == 0
        state.slots_asleep = chunk - 1 - np.where(wake, slots, carried).max(
            axis=0, keepdims=True)
    if sends == 0:
        return
    attempted = wake[:sends, src_idx]
    if live is not None:
        attempted &= live
    if bounds.fixed_loss and bounds.fixed_delay:
        # every attempt arrives the next slot, as in the slot loop
        state.last_arrival = np.where(attempted, raw, state.last_arrival).max(
            axis=0, keepdims=True)
        np.copyto(out[:sends], raw, where=attempted)
        return
    # Among an arc's attempts, ranked 1, 2, ...: after its last non-lossy
    # attempt (rank -fail_streak before the chunk), a lossy attempt j
    # ranks later is forced to deliver when j is a multiple of L_f + 1.
    rank = np.cumsum(attempted, axis=0)
    kept = np.maximum.accumulate(
        np.where(attempted & ~lossy, rank, -state.fail_streak), axis=0)
    lost = attempted & lossy & (
        (rank - kept) % (bounds.max_consecutive_losses + 1) != 0)
    delivered = attempted ^ lost
    state.fail_streak = rank[-1:] - np.where(
        delivered, rank, -state.fail_streak).max(axis=0, keepdims=True)
    # FIFO clamp: the q-th delivered send arrives at
    # q + max(last_arrival, max over q' <= q of raw_q' - q').
    order = np.cumsum(delivered, axis=0)
    lag = np.where(delivered, raw - order, state.last_arrival)
    arrival = order + np.maximum.accumulate(
        np.maximum(lag, state.last_arrival), axis=0)
    state.last_arrival = arrival[-1:]
    head = out[:sends]
    head[lost] = LOST
    np.copyto(head, arrival, where=delivered)


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
                     chunk: int | None = None) -> ScheduleRealization:
    """Materialize one run's schedule (wake table extended by L_d slots),
    `chunk` slots per realizer call; None picks ``chunk_slots(1, n, m)``.
    The schedule does not depend on the chunk length."""
    chunk = resolve_chunk(chunk, 1, topology.n, topology.m)
    if mask is not None:
        validate_mask(topology, bounds, mask, horizon)
    extended = horizon + bounds.max_effective_delay
    draws = ScheduleDraws(master_seed, run, topology.n, topology.m, bounds)
    state = RealizerState.initial(1, topology.n, topology.m)
    wakes, arrivals = [], []
    done = 0
    while done < extended:
        step = min(chunk, extended - done)
        w, a = realize_chunk(bounds, topology, state, done, horizon,
                             *ScheduleDraws.draw_batch([draws], step), mask)
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
