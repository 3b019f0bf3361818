"""Batched slot-loop executor for the push-based protocols.

One engine runs plain averaging, perturbed averaging and gradient-push.
State lives in numpy arrays with a leading run axis (B runs advance
together); every operation is elementwise or a fixed-order per-run
reduction, so each run's trajectory is bit-identical whatever batch it
executes in. Value and weight share one mass array, ``(B, n, d+1)`` with
the weight in the last column, and so do the sent and absorbed running
totals.

What sets the protocols apart is one optional wake-time ``update`` object
with two methods:

- ``update.chunk(kappa_before, slots)`` is called once per chunk, before
  its slot loop. ``slots`` holds the chunk's slot numbers, shape ``(C,)``,
  and ``kappa_before`` each node's last wake before every one of them,
  shape ``(B, C, n)``. Schedule-only work goes here, such as the optimizer's
  sleep-compensated steps and its gradient noise;
- ``update.delta(c, k, z, wake)`` is called at slot ``k``, the ``c``-th of
  the chunk, with the estimates ``z`` ``(B, n, d)`` and the waking nodes
  ``wake`` ``(B, n)``. It returns the value change that waking nodes apply
  before they push, shaped ``(B, n, d)`` or ``(n, d)``, or ``None`` for no
  change.

The engine adds the change to waking nodes only and records it, zeroed at
sleeping nodes, in ``Trace.applied``. ``optimizer.GradientStep`` and
``pushsum.Injection`` are the two updates; without one the engine runs
plain averaging.

Slots are processed in chunks. Each chunk starts with one vectorized pass
over its realized schedule, which depends on wakes, losses and delays but
never on the iterates:

1. with an update, each node's last wake before every slot, which
   ``update.chunk`` receives;
2. the acceptance schedule. Per arc and slot, ``newest`` is the send slot
   of the newest message that has arrived: arrivals on an arc are FIFO, so
   it is a running max over messages placed by arrival slot, and messages
   still in flight carry into the next chunk. An arc accepts at slot k when
   its receiver wakes and ``newest`` exceeds its value at the receiver's
   previous wake. An accepted message is at most ``L_d`` slots old.

The slot loop keeps only the data flow. Within one slot:

3. waking nodes apply their update and push: the outgoing share is
   credited to the running sent totals, and the local mass shrinks to its
   own share. The post-push totals go into a history keyed by send slot,
   ``L_d + 1`` slots deep;
4. arcs that accept read their message's totals from that history with one
   flat ``take``. The applied increment is the running-sum difference
   against what the arc absorbed before, summed over in-arcs in dst-sorted
   arc order, so lost or superseded messages are recovered automatically.

No slot step touches a sleeping node's x and y, so the engine keeps no
estimates: z = x / y is computed where it is read.

Messages consist of running sums, so accepting only the newest arrived
message per arc is equivalent to processing the whole inbox: any older
unprocessed message is dominated by the newest one.

A recorded trace also keeps the schedule the engine realized, as a
``faultnet.ScheduleRealization``. After the slot loop the engine realizes
``L_d`` more wake slots with the same draws and realizer state, since
delivery classification needs that tail; the audit reads this schedule
instead of realizing it again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, InconsistentScheduleError,
                     ProtocolViolationError)
from .faultnet import (DEFAULT_CHUNK, NOT_SENT, FaultBounds, RealizerState,
                       ScheduleDraws, ScheduleRealization, realize_chunk,
                       validate_mask)
from .graph import Topology

# Send slot standing for "no message" in the acceptance pass.
_NO_MESSAGE = np.iinfo(np.int64).min


def last_wakes(wake: np.ndarray, first_slot: int,
               prior: np.ndarray) -> np.ndarray:
    """(..., C+1, n) each node's last wake before every slot boundary of a
    (..., C, n) wake table whose rows are slots first_slot, first_slot + 1,
    ...; prior (..., n), row 0, stands until a node's first wake in the
    table: its last wake before first_slot, or the initial timestamp."""
    slots = np.arange(first_slot, first_slot + wake.shape[-2])[:, None]
    stamps = np.maximum.accumulate(np.where(wake, slots, -1), axis=-2)
    prior = prior[..., None, :]
    return np.concatenate([prior, np.where(stamps >= 0, stamps, prior)],
                          axis=-2)


@dataclass
class Trace:
    """Full per-slot state for one run (trace index = slot boundary).

    Value and weight share one array, and so do the running totals;
    ``x``/``y``, ``phi_x``/``phi_y`` and ``rho_x``/``rho_y`` are views.
    Row 0 of ``mass`` is the start state. The estimates ``z`` and last
    wakes ``kappa`` are derived, the latter from the schedule and
    ``init_timestamp``.
    """

    mass: np.ndarray     # (K+1, n, d+1)  x, then y in the last column
    phi: np.ndarray      # (K+1, n, d+1)  sent totals
    rho: np.ndarray      # (K+1, m, d+1)  absorbed totals, canonical arc order
    applied: np.ndarray  # (K, n, d) value deltas applied at wake
    schedule: ScheduleRealization   # wake (K + L_d, n), arrival (K, m)
    init_timestamp: int

    @classmethod
    def allocate(cls, schedule: ScheduleRealization, dim: int,
                 init_timestamp: int) -> "Trace":
        """Unfilled arrays for a d = `dim` run over `schedule`'s horizon and
        topology; ``applied`` starts at zero, as sleeping nodes apply
        nothing."""
        K, n, m = schedule.horizon, schedule.topology.n, schedule.topology.m
        return cls(*(np.empty((K + 1, rows, dim + 1)) for rows in (n, n, m)),
                   np.zeros((K, n, dim)), schedule, init_timestamp)

    @property
    def wake(self) -> np.ndarray:
        """(K, n) wakes of the protocol slots."""
        return self.schedule.wake[:self.schedule.horizon]

    @property
    def z(self) -> np.ndarray:
        """(K+1, n, d) estimates x / y."""
        return self.x / self.y[..., None]

    @property
    def kappa(self) -> np.ndarray:
        """(K+1, n) each node's last wake before every slot boundary."""
        return last_wakes(self.wake, 0, np.full(self.schedule.topology.n,
                                                self.init_timestamp))

    def head(self, slots: int) -> "Trace":
        """The trace of the first `slots` slots, as a run with that horizon
        records it (views; the schedule keeps its L_d wake tail)."""
        sched = self.schedule
        tail = slots + sched.bounds.max_effective_delay
        return Trace(self.mass[:slots + 1], self.phi[:slots + 1],
                     self.rho[:slots + 1], self.applied[:slots],
                     ScheduleRealization(sched.topology, sched.bounds, slots,
                                         sched.wake[:tail],
                                         sched.arrival[:slots]),
                     self.init_timestamp)

    @property
    def aug_mean(self) -> np.ndarray:
        """(K+1, d) mean of all mass in the system, in transit and excess
        included: the initial mass plus every applied delta, over n."""
        totals = np.concatenate([self.x[:1].sum(axis=1),
                                 self.applied.sum(axis=1)])
        return np.cumsum(totals, axis=0) / self.x.shape[1]

    @property
    def x(self) -> np.ndarray:
        return self.mass[..., :-1]

    @property
    def y(self) -> np.ndarray:
        return self.mass[..., -1]

    @property
    def phi_x(self) -> np.ndarray:
        return self.phi[..., :-1]

    @property
    def phi_y(self) -> np.ndarray:
        return self.phi[..., -1]

    @property
    def rho_x(self) -> np.ndarray:
        return self.rho[..., :-1]

    @property
    def rho_y(self) -> np.ndarray:
        return self.rho[..., -1]


@dataclass
class RunResult:
    z_final: np.ndarray            # (B, n, d)
    e_dist: np.ndarray | None      # (B, K+1) squared error of node-mean z
    trace: Trace | None


class _InArcs:
    """Every receiver's in-arcs in dst-sorted arc order, as a
    (width, receivers) table of arc ids; short columns are padded with m.

    Per-arc arrays laid out as (width, B, receivers, ...) sum over in-arcs
    with one elementwise add per table row.
    """

    def __init__(self, topology: Topology):
        m = topology.m
        self.receivers, degree = np.unique(topology.dst, return_counts=True)
        self.all_nodes = self.receivers.size == topology.n
        self.width = int(degree.max(initial=0))
        order = np.lexsort((topology.src, topology.dst))
        # table position of each dst-sorted arc, and of each arc
        row = np.arange(m) - np.repeat(np.cumsum(degree) - degree, degree)
        col = np.repeat(np.arange(self.receivers.size), degree)
        self.table = np.full((self.width, self.receivers.size), m)
        self.table[row, col] = order
        self.row_of = np.empty(m, dtype=np.int64)
        self.col_of = np.empty(m, dtype=np.int64)
        self.row_of[order], self.col_of[order] = row, col

    def lay_out(self, per_arc: np.ndarray, pad) -> np.ndarray:
        """(B, C, m) -> contiguous (C, width, B, receivers)."""
        fill = np.full(per_arc.shape[:2] + (1,), pad, dtype=per_arc.dtype)
        padded = np.concatenate([per_arc, fill], axis=2)[:, :, self.table]
        return np.ascontiguousarray(padded.transpose(1, 2, 0, 3))

    def total(self, inc: np.ndarray) -> np.ndarray:
        """Per-receiver sums of (width, B, receivers, ...) increments whose
        padding holds -0.0, the exact identity of addition.

        Adds left to right in dst-sorted arc order, which is arc-id order
        within a receiver, as ``pushsum.process_inbox`` does.
        """
        acc = inc[0]
        for j in range(1, self.width):
            acc = acc + inc[j]
        return acc


class _Acceptance:
    """Which arc accepts which message at which slot, chunk by chunk, in
    the in-arc layout.

    Per arc, ``newest`` is the send slot of the newest arrived message and
    ``seen`` its value at the receiver's last wake; both start at the
    initial timestamp. ``in_flight`` holds the send slots of messages
    arriving in the next ``L_del`` slots, by arrival slot.
    """

    def __init__(self, topology: Topology, in_arcs: _InArcs,
                 bounds: FaultBounds, batch: int, init_timestamp: int):
        self.topology, self.in_arcs = topology, in_arcs
        self.max_age = bounds.max_effective_delay
        self.span = bounds.max_transmission_delay
        shape = (in_arcs.width, batch, in_arcs.receivers.size)
        self.newest = np.full(shape, init_timestamp, dtype=np.int64)
        self.seen = self.newest.copy()
        self.in_flight = np.full((self.span,) + shape, _NO_MESSAGE,
                                 dtype=np.int64)

    def advance(self, first_slot: int, wake: np.ndarray, arrival: np.ndarray,
                runs) -> tuple[np.ndarray, np.ndarray]:
        """(accept, newest), both (C, width, B, receivers), for one realized
        chunk: wake (B, C, n) and arrival (B, C, m)."""
        arrival = self.in_arcs.lay_out(arrival, NOT_SENT)
        steps, cell = arrival.shape[0], arrival[0].size
        # send slots placed by arrival slot
        arriving = np.full((steps + self.span,) + arrival.shape[1:],
                           _NO_MESSAGE, dtype=np.int64)
        arriving[:self.span] = self.in_flight
        sends = np.flatnonzero(arrival >= 0)
        sent = first_slot + sends // cell
        arriving.reshape(-1)[sends + (arrival.reshape(-1)[sends] - sent)
                             * cell] = sent
        self.in_flight = arriving[steps:].copy()
        arriving[0] = np.maximum(arriving[0], self.newest)
        newest = np.maximum.accumulate(arriving[:steps], axis=0)
        wake_dst = wake.swapaxes(0, 1)[:, None][..., self.in_arcs.receivers]
        seen = np.where(wake_dst, newest, _NO_MESSAGE)
        seen[0] = np.maximum(seen[0], self.seen)
        seen = np.maximum.accumulate(seen, axis=0)
        accept = wake_dst & (newest > np.concatenate([self.seen[None],
                                                      seen[:-1]]))
        self.newest, self.seen = newest[-1], seen[-1]
        slots = np.arange(first_slot, first_slot + steps)[:, None, None, None]
        stale = accept & (newest < slots - self.max_age)
        if stale.any():
            c, j, b, r = np.argwhere(stale)[0]
            arc = self.in_arcs.table[j, r]
            raise InconsistentScheduleError(
                f"arc {self.topology.src[arc]}->{self.topology.dst[arc]}: "
                f"message sent at slot {newest[c, j, b, r]} accepted at "
                f"slot {first_slot + c}, more than L_d = {self.max_age} "
                f"slots later (run index {runs[b]})")
        return accept, newest


def _per_slot(a: np.ndarray, cols: int) -> np.ndarray:
    """(B, C, ...) -> (C, B, ..., cols) with the new last axis repeated, so
    that each slot's mask or factor is one contiguous block."""
    return np.repeat(np.moveaxis(a, 1, 0)[..., None], cols, axis=-1)


def run_protocol(topology: Topology, bounds: FaultBounds, x0: np.ndarray,
                 horizon: int, master_seed: int, runs: tuple[int, ...] = (0,),
                 init_timestamp: int = 0, update=None,
                 mask: np.ndarray | None = None,
                 z_star: np.ndarray | None = None,
                 record_trace: bool = False,
                 chunk: int = DEFAULT_CHUNK) -> RunResult:
    """Advance B = len(runs) runs for `horizon` slots from shared x0,
    applying the optional wake-time `update` (see the module docstring)."""
    n, m = topology.n, topology.m
    batch = len(runs)
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 2:
        x0 = np.broadcast_to(x0, (batch,) + x0.shape)
    if x0.shape[:2] != (batch, n):
        raise ConfigurationError(f"x0 shape {x0.shape} incompatible with "
                                 f"(runs={batch}, n={n})")
    dim = x0.shape[2]
    if record_trace and batch != 1:
        raise ConfigurationError("traces require a single run")
    if mask is not None:
        validate_mask(topology, bounds, mask, horizon)

    denom = (topology.out_degree() + 1).astype(float)[None, :, None]
    depth = bounds.max_effective_delay + 1
    in_arcs = _InArcs(topology)

    # Protocol state: mass = (x, y) per node; the absorbed totals per
    # in-arc, laid out (width, B, receivers, d+1).
    mass = np.empty((batch, n, dim + 1))
    mass[..., :dim] = x0
    mass[..., dim] = 1.0
    x, y, y_col = mass[..., :dim], mass[..., dim], mass[..., dim:]
    rho = np.zeros((in_arcs.width, batch, in_arcs.receivers.size, dim + 1))
    no_increment = np.zeros_like(rho)
    pad_row, pad_col = np.nonzero(in_arcs.table == m)
    no_increment[pad_row, :, pad_col] = -0.0
    # Post-push running totals keyed by send slot modulo depth; the cell of
    # slot -1 holds the initial zeros. Row (cell * B + b) * n + i of the
    # flat view holds node i of run b.
    history = np.zeros((depth, batch, n, dim + 1))
    flat_history = history.reshape(-1, dim + 1)
    src_rows = (np.arange(batch)[:, None] * n
                + np.append(topology.src, 0)[in_arcs.table][:, None])
    kappa = np.full((batch, 1, n), init_timestamp)   # last_wakes' row -1
    acceptance = _Acceptance(topology, in_arcs, bounds, batch,
                             init_timestamp)

    schedule_draws = [ScheduleDraws(master_seed, r, n, m) for r in runs]
    realizer = RealizerState.initial(batch, n, m)

    e_dist = np.empty((batch, horizon + 1)) if z_star is not None else None
    trace = None
    if record_trace:
        trace = Trace.allocate(ScheduleRealization(
            topology, bounds, horizon,
            np.empty((horizon + bounds.max_effective_delay, n), dtype=bool),
            np.empty((horizon, m), dtype=np.int64)), dim, init_timestamp)
        trace.mass[0], trace.phi[0], trace.rho[0] = mass[0], 0.0, 0.0

    def record_errors(first: int, mass_slots: np.ndarray) -> None:
        """Squared error of the node-mean z at slot boundaries first,
        first + 1, ...; mass_slots is (slots, B, n, d+1)."""
        z_slots = mass_slots[..., :dim] / mass_slots[..., dim:]
        diff = z_slots.sum(axis=2) / n - z_star
        e_dist[:, first:first + len(diff)] = np.sum(diff * diff, axis=2).T

    if e_dist is not None:
        record_errors(0, mass[None])

    def realize(first: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
        draws = [d_.draw_chunk(steps) for d_ in schedule_draws]
        return realize_chunk(bounds, topology, realizer, first, horizon,
                             *(np.stack(u) for u in zip(*draws)), mask)

    done = 0
    while done < horizon:
        steps = min(chunk, horizon - done)
        wake_c, arrival_c = realize(done, steps)
        wake_mass = _per_slot(wake_c, dim + 1)         # (C, B, n, d+1)
        if trace is not None:
            trace.schedule.wake[done:done + steps] = wake_c[0]
            trace.schedule.arrival[done:done + steps] = arrival_c[0]

        # Schedule-only work for the whole chunk: the update's, which reads
        # each node's last wake before every slot;
        if update is not None:
            wake_val = _per_slot(wake_c, dim)          # (C, B, n, d)
            kappa = last_wakes(wake_c, done, kappa[:, -1])
            update.chunk(kappa[:, :-1], np.arange(done, done + steps))
        # the arcs that accept, and the history rows of their messages:
        if m:
            accept_c, newest_c = acceptance.advance(done, wake_c, arrival_c,
                                                    runs)
            accepting = accept_c.any(axis=(1, 2, 3))
            take_rows = (newest_c % depth) * (batch * n) + src_rows
            accept_c = np.repeat(accept_c[..., None], dim + 1, axis=-1)
        mass_slots = None if e_dist is None else np.empty((steps, *mass.shape))

        for c in range(steps):
            k = done + c
            delta = None
            if update is not None:
                delta = update.delta(c, k, x / y_col, wake_c[:, c])
            if delta is not None:
                # the masked add runs faster on a contiguous copy of x
                moved = np.ascontiguousarray(x)
                np.add(moved, delta, out=moved, where=wake_val[c])
                x[...] = moved
                if trace is not None:
                    trace.applied[k] = np.where(wake_val[c], delta, 0.0)[0]

            # Push: keep one share, add the rest to the sent totals.
            phi = history[k % depth]
            np.copyto(phi, history[(k - 1) % depth])
            np.divide(mass, denom, out=mass, where=wake_mass[c])
            np.add(phi, mass, out=phi, where=wake_mass[c])

            # Receive: difference the accepted totals against the absorbed.
            if m and accepting[c]:
                accept = accept_c[c]
                payload = flat_history.take(take_rows[c], axis=0)
                inc = np.subtract(payload, rho, out=no_increment.copy(),
                                  where=accept)
                if in_arcs.all_nodes:
                    mass += in_arcs.total(inc)
                else:
                    mass[:, in_arcs.receivers] += in_arcs.total(inc)
                np.copyto(rho, payload, where=accept)

            if not y.min() > 0.0:
                b_i, n_i = np.argwhere(~(y > 0.0))[0]
                raise ProtocolViolationError(
                    f"non-positive push-sum weight at node {n_i} slot {k} "
                    f"(run index {runs[b_i]})",
                    run=int(runs[b_i]), slot=k, node=int(n_i))

            if mass_slots is not None:
                mass_slots[c] = mass
            if trace is not None:
                trace.mass[k + 1], trace.phi[k + 1] = mass[0], phi[0]
                trace.rho[k + 1] = rho[in_arcs.row_of, 0, in_arcs.col_of]
        if mass_slots is not None:
            record_errors(done + 1, mass_slots)
        done += steps

    if trace is not None:
        # the wake tail that delivery classification needs
        trace.schedule.wake[horizon:] = realize(
            horizon, bounds.max_effective_delay)[0][0]
    return RunResult(z_final=x / y_col, e_dist=e_dist, trace=trace)
