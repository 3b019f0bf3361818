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
  shape ``(B, C, n)``, a view of a chunk table that later chunks refill,
  so an update that keeps its rows copies them. Schedule-only work goes
  here, such as the optimizer's sleep-compensated steps and its gradient
  noise;
- ``update.delta(c, k, z, wake)`` is called at slot ``k``, the ``c``-th of
  the chunk, with the estimates ``z`` ``(B, n, d)`` and the waking nodes
  ``wake`` ``(B, n)``, both rows of chunk tables that later chunks refill.
  It returns the value change that waking nodes apply before they push,
  shaped ``(B, n, d)`` or ``(n, d)``, or ``None`` for no change.

The engine adds the change to waking nodes only and records it, zeroed at
sleeping nodes, in ``Trace.applied``. ``optimizer.GradientStep`` and
``pushsum.Injection`` are the two updates; without one the engine runs
plain averaging.

Slots are processed in chunks of ``faultnet.chunk_slots(B, n, m)`` slots
unless the caller fixes the length: the most that keep B runs of n nodes
and m arcs within ``faultnet.CHUNK_CELLS`` = 65,536 cells, and at least
one. A chunk's tables (draws, schedule, acceptance, per-slot operands,
estimates, the update's steps and noise) grow as C x B x (n + m), so this
holds them to a few times 65,536 entries whatever the batch, while the
per-chunk fixed cost (a few dozen numpy calls, one Philox call per run and
role) stays a near-constant share of the work: 43 slots at B = 50 on a
10-node bidirectional cycle, 10 at B = 200, and a whole 500-slot run at
B = 1. Results do not depend on the length.

A call holds one generation of chunk tables: each is allocated once, at
the first chunk's length, and refilled in place by every chunk after it,
instead of being built fresh while the last chunk's tables are still
alive, and the acceptance pass works in the realized arrival table it is
handed. At the benchmark's op shapes one ``run_gradient_push`` call's
traced peak went from 5.48 to 3.66 MiB (svm_sync, B = 5, H = 500) and
from 6.12 to 4.65 MiB (quad_async, B = 50, H = 1,000): 4.49 and 5.42 MiB
came from refilling the draws, schedule, operands and the update's steps
and noise, 3.83 and 4.74 MiB from the in-place acceptance pass and the
refilled last wakes and compensated steps, and the rest from building the
stale check's mask in a held table and the divisor in its own (shared
2-core x86-64 host, numpy 2.4).

Each chunk starts with one vectorized pass over its realized
schedule, which depends on wakes, losses and delays but never on the
iterates:

1. with an update, each node's last wake before every slot, which
   ``update.chunk`` receives;
2. the acceptance schedule, in arc order. Per arc and slot, ``newest`` is
   the send slot of the newest message that has arrived: arrivals on an
   arc are FIFO, so it is a running max over messages placed by arrival
   slot, and messages still in flight carry into the next chunk. An arc
   accepts at slot k when its receiver wakes and ``newest`` exceeds its
   value at the receiver's previous wake. Both start at -1, "no message
   yet", so a slot-0 send is accepted like any other. An accepted message
   is at most ``L_d`` slots old. The pass works in place: each send's
   placement is computed over the realized arrival table, which a trace
   has already copied and nothing reads afterwards, and the running max of
   ``newest`` becomes ``seen``, its value at the receiver's last wake,
   which equals ``newest`` wherever an arc accepts. The history rows the
   slot loop takes are read from ``seen``; only they and the accept mask
   are laid out per in-arc.

The slot loop keeps only the data flow. Within one slot:

3. waking nodes apply their update and push: the outgoing share is
   credited to the running sent totals, and the local mass shrinks to its
   own share. The post-push totals go into a history keyed by send slot,
   at least ``L_d + 1`` slots deep;
4. arcs that accept read their message's totals from that history with one
   flat ``take``. The applied increment is the running-sum difference
   against what the arc absorbed before, summed over in-arcs in dst-sorted
   arc order, so lost or superseded messages are recovered automatically.

No slot step touches a sleeping node's x and y, so the engine keeps no
estimates between slots. When the update or the error series reads them,
z = x / y is computed once per slot boundary, into a (C + 1, B, n, d)
chunk table: ``update.delta`` reads it row by row, the error series
reduces it once per chunk, and row 0 carries the previous chunk's last
boundary.

Speed rule. The chunk pass and the error series avoid three numpy paths
that were slow on this engine's data, measured on a shared 2-core host:

- coin-flip masks: ``np.where`` 602 us on a random 128k mask, 94 us on a
  predictable one; a ``where=`` add of one slot 7.9 us, 1.85 us unmasked;
- ``np.maximum.accumulate`` down (128, 1000) int64: 424 us, 174 us as a
  row loop;
- the node sum over axis 2: 1.31 ms a chunk, 0.50 ms as a loop, same bits.

So selects are integer arithmetic, and sleeping nodes divide by 1.0 and
add -0.0, exact for every double.

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
from .faultnet import (FaultBounds, RealizerState, ScheduleDraws,
                       ScheduleRealization, realize_chunk, resolve_chunk,
                       validate_mask)
from .graph import Topology

# Send slot standing for "no message" in the acceptance pass.
_NO_MESSAGE = np.iinfo(np.int64).min


def last_wakes(wake: np.ndarray, first_slot: int, prior: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """(..., C+1, n) each node's last wake before every slot boundary of a
    (..., C, n) wake table whose rows are slots first_slot, first_slot + 1,
    ...; prior (..., n), row 0, stands until a node's first wake in the
    table: its last wake before first_slot, or -1 (no wake yet).

    Scans slot-major memory, `out` (C+1, ..., n) int64 if given, else a
    fresh table; the result is a view of it. `prior` may be a row of the
    last call's `out`."""
    rows = np.moveaxis(wake, -2, 0)
    slots = np.arange(first_slot + 1, first_slot + 1 + rows.shape[0])
    if out is None:
        out = np.empty((rows.shape[0] + 1,) + rows.shape[1:], dtype=np.int64)
    # each wake stamped with its slot + 1, every other entry with 0, behind
    # prior + 1, which is below every stamp of a wake in the table; the
    # running max less 1 is then the last wake or prior
    np.add(prior, 1, out=out[0])
    np.multiply(rows, slots.reshape((-1,) + (1,) * (rows.ndim - 1)),
                out=out[1:])
    _running_max(out)
    out -= 1
    return np.moveaxis(out, 0, -2)


# Rows at least this long scan faster one ``np.maximum`` call per row than
# in one ``np.maximum.accumulate`` call along the leading axis; shorter
# rows, as in a single run, the other way round. Measured at 129 rows of
# int64: 5 entries 3 us against 136 us, 1050 entries 402 us against 151 us.
_ROW_SCAN_MIN = 256


def _running_max(rows: np.ndarray) -> None:
    """Running maximum along axis 0, in place."""
    if rows[0].size < _ROW_SCAN_MIN:
        np.maximum.accumulate(rows, axis=0, out=rows)
        return
    for c in range(1, rows.shape[0]):
        np.maximum(rows[c - 1], rows[c], out=rows[c])


@dataclass
class Trace:
    """Full per-slot state for one run (trace index = slot boundary).

    Value and weight share one array, and so do the running totals;
    ``x``/``y``, ``phi_x``/``phi_y`` and ``rho_x``/``rho_y`` are views.
    Row 0 of ``mass`` is the start state. The estimates ``z`` and last
    wakes ``kappa`` are derived, the latter from the schedule.
    """

    mass: np.ndarray     # (K+1, n, d+1)  x, then y in the last column
    phi: np.ndarray      # (K+1, n, d+1)  sent totals
    rho: np.ndarray      # (K+1, m, d+1)  absorbed totals, canonical arc order
    applied: np.ndarray  # (K, n, d) value deltas applied at wake
    schedule: ScheduleRealization   # wake (K + L_d, n), arrival (K, m)

    @classmethod
    def allocate(cls, schedule: ScheduleRealization, dim: int) -> "Trace":
        """Unfilled arrays for a d = `dim` run over `schedule`'s horizon and
        topology; ``applied`` starts at zero, as sleeping nodes apply
        nothing."""
        K, n, m = schedule.horizon, schedule.topology.n, schedule.topology.m
        return cls(*(np.empty((K + 1, rows, dim + 1)) for rows in (n, n, m)),
                   np.zeros((K, n, dim)), schedule)

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
        """(K+1, n) each node's last wake before every slot boundary, -1
        before its first."""
        return last_wakes(self.wake, 0, np.full(self.schedule.topology.n, -1))

    def window(self, first: int, slots: int) -> "Trace":
        """Slots first .. first + slots - 1 of the run, numbered from 0:
        boundaries first .. first + slots, and a schedule of horizon `slots`
        that keeps its L_d wake tail and whose arrival slots count from
        `first`. Views, except the arrival table of a window that does not
        start at slot 0. The derived ``kappa`` and ``aug_mean`` read the
        window as a whole run, so they hold only for first = 0."""
        sched = self.schedule
        if not 0 <= first <= first + slots <= sched.horizon:
            raise ConfigurationError(
                f"window of {slots} slots at slot {first} outside the "
                f"horizon {sched.horizon}")
        end = first + slots
        tail = end + sched.bounds.max_effective_delay
        arrival = sched.arrival[first:end]
        if first:
            arrival = np.where(arrival >= 0, arrival - first, arrival)
        return Trace(self.mass[first:end + 1], self.phi[first:end + 1],
                     self.rho[first:end + 1], self.applied[first:end],
                     ScheduleRealization(sched.topology, sched.bounds, slots,
                                         sched.wake[first:tail], arrival))

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
    """Every node's in-arcs in dst-sorted arc order, as a (width, n) table
    of arc ids; short columns are padded with m, so a node without in-arcs
    has a column of padding.

    Per-arc arrays laid out as (width, B, n, ...) sum over in-arcs with one
    elementwise add per table row.
    """

    def __init__(self, topology: Topology):
        self.m = m = topology.m
        degree = np.bincount(topology.dst, minlength=topology.n)
        self.width = int(degree.max(initial=0))
        order = np.lexsort((topology.src, topology.dst))
        # table position of each dst-sorted arc, and of each arc
        row = np.arange(m) - np.repeat(np.cumsum(degree) - degree, degree)
        col = np.repeat(np.arange(topology.n), degree)
        self.table = np.full((self.width, topology.n), m)
        self.table[row, col] = order
        self.row_of = np.empty(m, dtype=np.int64)
        self.col_of = np.empty(m, dtype=np.int64)
        self.row_of[order], self.col_of[order] = row, col

    def cells(self, batch: int) -> np.ndarray:
        """(width, B, n) flat position of each table cell in a
        (B, m + 1) per-arc row; the padding points at column m."""
        return (np.arange(batch)[:, None] * (self.m + 1)
                + self.table[:, None, :])

    def total(self, inc: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Per-node sums of (width, B, n, ...) increments whose
        padding holds -0.0, the exact identity of addition, into `out`.

        Adds left to right in dst-sorted arc order, which is arc-id order
        within a receiver, as ``pushsum.process_inbox`` does.
        """
        if self.width == 1:
            return inc[0]
        np.add(inc[0], inc[1], out=out)
        for j in range(2, self.width):
            np.add(out, inc[j], out=out)
        return out


class _Acceptance:
    """Which arc accepts which message at which slot, chunk by chunk, in arc
    order: per-arc arrays are (C, B, m + 1), and column m is a phantom arc
    that no message reaches, so it never accepts.

    Per arc, ``newest`` is the send slot of the newest arrived message and
    ``seen`` its value at the receiver's last wake; both start at -1, below
    every send slot. ``in_flight`` holds the send slots of messages
    arriving in the next ``L_del`` slots, by arrival slot.
    """

    def __init__(self, topology: Topology, bounds: FaultBounds, batch: int,
                 chunk: int):
        m = topology.m
        self.topology = topology
        self.max_age = bounds.max_effective_delay
        self.span = bounds.max_transmission_delay
        self.dst = np.append(topology.dst, 0)
        self.newest = np.full((batch, m + 1), -1, dtype=np.int64)
        self.seen = self.newest.copy()
        self.in_flight = np.full((self.span, batch, m + 1), _NO_MESSAGE,
                                 dtype=np.int64)
        # Send slots by arrival slot, (chunk + span, B, m + 1) behind a
        # scratch cell 0, and each arc's position within a row of it.
        self.cell = batch * (m + 1)
        self.arriving = np.empty(1 + (chunk + self.span) * self.cell,
                                 dtype=np.int64)
        self.offset = 1 + np.arange(batch)[:, None] * (m + 1) + np.arange(m)
        self.accept = np.empty((chunk, batch, m + 1), dtype=bool)
        self.stale = np.empty_like(self.accept)

    def advance(self, first_slot: int, wake: np.ndarray, arrival: np.ndarray,
                runs) -> tuple[np.ndarray, np.ndarray]:
        """(accept, seen), both (C, B, m + 1), for one realized chunk: wake
        (C, B, n) and arrival (C, B, m), which this overwrites. ``seen`` is
        the send slot of the message an arc accepts wherever it accepts.
        Both results are views that the next chunk overwrites."""
        steps, batch, m = arrival.shape
        cell, span = self.cell, self.span
        arriving = self.arriving[:1 + (steps + span) * cell]
        arriving[1:1 + span * cell] = self.in_flight.reshape(-1)
        arriving[1 + span * cell:] = _NO_MESSAGE
        # A delivered send, arriving at slot t, lands in row t - first_slot;
        # a lost or unsent one (arrival < 0) at a position <= 0, clamped to
        # the scratch cell. The arrival table becomes the placement.
        place = arrival
        place *= cell
        place += self.offset - first_slot * cell
        np.maximum(place, 0, out=place)
        slots = np.arange(first_slot, first_slot + steps)[:, None, None]
        arriving[place] = slots
        rows = arriving[1:].reshape(steps + span, batch, m + 1)
        self.in_flight[...] = rows[steps:]
        newest = rows[:steps]
        np.maximum(newest[0], self.newest, out=newest[0])
        _running_max(newest)
        self.newest[...] = newest[-1]
        # seen, in place of newest: newest at the receiver's wakes. Newest
        # never falls below the last seen value, so a sleeping receiver's
        # entry may hold that value instead of "no message", every entry is
        # at least the last chunk's seen, and an arc accepts exactly when
        # its seen value rises.
        seen = newest
        woke = wake.take(self.dst, axis=2, out=self.accept[:steps],
                         mode="clip")
        seen -= self.seen
        seen *= woke
        seen += self.seen
        _running_max(seen)
        accept = woke
        np.greater(seen[1:], seen[:-1], out=accept[1:])
        np.greater(seen[0], self.seen, out=accept[0])
        self.seen[...] = seen[-1]
        stale = np.less(seen, slots - self.max_age, out=self.stale[:steps])
        stale &= accept
        if stale.any():
            c, b, arc = np.argwhere(stale)[0]
            raise InconsistentScheduleError(
                f"arc {self.topology.src[arc]}->{self.topology.dst[arc]}: "
                f"message sent at slot {seen[c, b, arc]} accepted at "
                f"slot {first_slot + c}, more than L_d = {self.max_age} "
                f"slots later (run index {runs[b]})")
        return accept, seen


def _per_slot(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill (C, B, ..., cols) `out` with (C, B, ...) `a` repeated along the
    last axis, so that each slot's mask or operand is one contiguous block.
    One strided copy per column: a broadcast onto the short last axis took
    4x as long at quad_async's chunk shape."""
    for j in range(out.shape[-1]):
        out[..., j] = a
    return out


def _estimates(mass: np.ndarray, z: np.ndarray | None = None
               ) -> np.ndarray:
    """(..., n, d) ratios x / y of a (..., n, d+1) mass array, into `z` if
    given, one coordinate at a time (a broadcast y column divides
    slower)."""
    dim = mass.shape[-1] - 1
    if z is None:
        z = np.empty(mass.shape[:-1] + (dim,))
    for j in range(dim):
        np.divide(mass[..., j], mass[..., dim], out=z[..., j])
    return z


def run_protocol(topology: Topology, bounds: FaultBounds, x0: np.ndarray,
                 horizon: int, master_seed: int, runs: tuple[int, ...] = (0,),
                 update=None, mask: np.ndarray | None = None,
                 z_star: np.ndarray | None = None,
                 record_trace: bool = False,
                 chunk: int | None = None) -> RunResult:
    """Advance B = len(runs) runs for `horizon` slots from shared x0,
    applying the optional wake-time `update` (see the module docstring).

    `chunk` is the number of slots per chunk; None picks
    ``faultnet.chunk_slots(B, n, m)``. Results do not depend on it."""
    n, m = topology.n, topology.m
    batch = len(runs)
    if not batch:
        raise ConfigurationError("runs: at least one run required")
    # no buffer longer than the run
    chunk = min(resolve_chunk(chunk, batch, n, m), max(horizon, 1))
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

    out_degree = topology.out_degree().astype(float)
    # at least L_d + 1 slots deep, and a power of two, so that a bitwise
    # and takes send slots (-1 included) modulo depth
    depth = 1 << bounds.max_effective_delay.bit_length()
    in_arcs = _InArcs(topology)

    # Protocol state: mass = (x, y) per node; the absorbed totals per
    # in-arc, laid out (width, B, n, d+1).
    mass = np.empty((batch, n, dim + 1))
    mass[..., :dim] = x0
    mass[..., dim] = 1.0
    y = mass[..., dim]
    rho = np.zeros((in_arcs.width, batch, n, dim + 1))
    # Post-push running totals keyed by send slot modulo depth; the cell of
    # slot -1 holds the initial zeros. Row (cell * B + b) * n + i of the
    # flat view holds node i of run b.
    history = np.zeros((depth, batch, n, dim + 1))
    flat_history = history.reshape(-1, dim + 1)
    src_rows = (np.arange(batch)[:, None] * n
                + np.append(topology.src, 0)[in_arcs.table][:, None])
    cells = in_arcs.cells(batch)
    kappa = np.full((batch, 1, n), -1)   # no wake before slot 0
    acceptance = _Acceptance(topology, bounds, batch, chunk)

    schedule_draws = [ScheduleDraws(master_seed, r, n, m, bounds)
                      for r in runs]
    realizer = RealizerState.initial(batch, n, m)

    e_dist = np.empty((batch, horizon + 1)) if z_star is not None else None
    trace = None
    if record_trace:
        trace = Trace.allocate(ScheduleRealization(
            topology, bounds, horizon,
            np.empty((horizon + bounds.max_effective_delay, n), dtype=bool),
            np.empty((horizon, m), dtype=np.int64)), dim)
        trace.mass[0], trace.phi[0], trace.rho[0] = mass[0], 0.0, 0.0

    def record_errors(first: int, z_slots: np.ndarray) -> None:
        """Squared error of the node-mean z at slot boundaries first,
        first + 1, ...; z_slots is (slots, B, n, d)."""
        if dim == 1:
            # numpy's own sum, whose order over a contiguous node axis is
            # pairwise, not left to right
            node_sum = z_slots.sum(axis=2)
        else:
            # left to right over nodes, the order numpy takes when nodes
            # are not the innermost axis, but one add per node
            node_sum = z_slots[:, :, 0].copy()
            for i in range(1, n):
                np.add(node_sum, z_slots[:, :, i], out=node_sum)
        diff = node_sum / n - z_star
        e_dist[:, first:first + len(diff)] = np.sum(diff * diff, axis=2).T

    # Chunk tables, allocated once per call and refilled by every chunk:
    # fresh ones cost more to allocate than to fill, and would be built
    # while the last chunk's are still alive. The schedule's buffers also
    # hold the L_d slots of a trace's wake tail.
    rows = max(chunk, bounds.max_effective_delay)
    draw_bufs = ScheduleDraws.buffers(schedule_draws, rows)
    schedule_bufs = (np.empty((rows, batch, n), dtype=bool),
                     np.empty((rows, batch, m), dtype=np.int64))
    wake_mass_buf = np.empty((chunk, batch, n, dim + 1), dtype=bool)
    divisor_buf = np.empty((chunk, batch, n, dim + 1))
    accept_mass_buf = np.empty((chunk,) + rho.shape, dtype=bool)
    rows_buf = np.empty((chunk,) + cells.shape, dtype=np.int64)
    payload, diff = np.empty_like(rho), np.empty_like(rho)
    step = np.full_like(mass, -0.0)
    in_sum = np.empty(rho.shape[1:])
    # a trace's absorbed totals in the in-arc layout, put in arc order once
    # per chunk
    rho_buf = None if trace is None else np.empty((chunk,) + rho[:, 0].shape)
    # the last wakes before the chunk's slot boundaries, slot-major; row 0
    # is the previous chunk's last row
    kappa_buf = (None if update is None else
                 np.empty((chunk + 1, batch, n), dtype=np.int64))
    # The estimates at the chunk's slot boundaries, computed once for both
    # readers, the update and the error series; row 0 holds the previous
    # chunk's last boundary.
    z = (None if update is None and e_dist is None else
         np.empty((chunk + 1, batch, n, dim)))

    if z is not None:
        _estimates(mass, z[0])
    if e_dist is not None:
        record_errors(0, z[:1])

    def realize(first: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
        return realize_chunk(bounds, topology, realizer, first, horizon,
                             *ScheduleDraws.draw_batch(schedule_draws, steps,
                                                       draw_bufs),
                             mask, schedule_bufs)

    done = 0
    while done < horizon:
        steps = min(chunk, horizon - done)
        wake_c, arrival_c = realize(done, steps)
        if trace is not None:
            trace.schedule.wake[done:done + steps] = wake_c[0]
            trace.schedule.arrival[done:done + steps] = arrival_c[0]
        # Slot-major views (the realizer writes slot-major), and per-slot
        # operands from the schedule alone: a sleeping node divides by 1.0,
        # exact for every double.
        wake = np.ascontiguousarray(wake_c.swapaxes(0, 1))   # (C, B, n)
        wake_mass = _per_slot(wake, wake_mass_buf[:steps])  # (C, B, n, d+1)
        # The divisor is built in column 0 and copied across by a ufunc: an
        # assignment between columns of one buffer copies through a
        # temporary, since their memory bounds overlap.
        divisor = divisor_buf[:steps]
        np.multiply(wake, out_degree, out=divisor[..., 0])
        divisor[..., 0] += 1.0
        for j in range(1, dim + 1):
            np.positive(divisor[..., 0], out=divisor[..., j])

        # Schedule-only work for the whole chunk: the update's, which reads
        # each node's last wake before every slot;
        if update is not None:
            kappa = last_wakes(wake_c, done, kappa[:, -1],
                               kappa_buf[:steps + 1])
            update.chunk(kappa[:, :-1], np.arange(done, done + steps))
        # the arcs that accept, and the history rows of their messages, in
        # the in-arc layout:
        if m:
            accept, seen = acceptance.advance(
                done, wake, np.ascontiguousarray(arrival_c.swapaxes(0, 1)),
                runs)
            accept = accept.reshape(steps, -1)
            accepting = accept.any(axis=1)
            accept_mass = _per_slot(accept.take(cells, axis=1),
                                    accept_mass_buf[:steps])
            # every index is in range; with ``out``, the default mode would
            # also take into a temporary copy of it
            take_rows = seen.reshape(steps, -1).take(
                cells, axis=1, out=rows_buf[:steps], mode="clip")
            take_rows &= depth - 1
            take_rows *= batch * n
            take_rows += src_rows

        for c in range(steps):
            k = done + c
            delta = None
            if update is not None:
                delta = update.delta(c, k, z[c], wake[c])
            if delta is not None:
                # adding -0.0, in the weight column and at sleeping nodes,
                # leaves every double as it is
                step[..., :dim] = delta
                mass += np.where(wake_mass[c], step, -0.0)
                if trace is not None:
                    trace.applied[k] = np.where(wake_mass[c, ..., :dim],
                                                delta, 0.0)[0]

            # Push: keep one share, add the rest to the sent totals.
            phi = history[k % depth]
            np.divide(mass, divisor[c], out=mass)
            np.add(history[(k - 1) % depth],
                   np.where(wake_mass[c], mass, -0.0), out=phi)

            # Receive: difference the accepted totals against the absorbed.
            # An in-arc that does not accept adds -0.0, as padding does, so
            # a node's x keeps its bits, the sign of a zero included.
            if m and accepting[c]:
                flat_history.take(take_rows[c], axis=0, out=payload,
                                  mode="clip")
                np.subtract(payload, rho, out=diff)
                inc = np.where(accept_mass[c], diff, -0.0)
                mass += in_arcs.total(inc, in_sum)
                np.copyto(rho, payload, where=accept_mass[c])

            if not y.min() > 0.0:
                b_i, n_i = np.argwhere(~(y > 0.0))[0]
                raise ProtocolViolationError(
                    f"non-positive push-sum weight at node {n_i} slot {k} "
                    f"(run index {runs[b_i]})",
                    run=int(runs[b_i]), slot=k, node=int(n_i))

            if z is not None:
                _estimates(mass, z[c + 1])
            if trace is not None:
                trace.mass[k + 1], trace.phi[k + 1] = mass[0], phi[0]
                rho_buf[c] = rho[:, 0]
        if e_dist is not None:
            record_errors(done + 1, z[1:steps + 1])
        if z is not None:
            z[0] = z[steps]
        if trace is not None:
            trace.rho[done + 1:done + steps + 1] = rho_buf[
                :steps, in_arcs.row_of, in_arcs.col_of]
        done += steps

    if trace is not None:
        # the wake tail that delivery classification needs
        trace.schedule.wake[horizon:] = realize(
            horizon, bounds.max_effective_delay)[0][0]
    return RunResult(z_final=_estimates(mass), e_dist=e_dist, trace=trace)
