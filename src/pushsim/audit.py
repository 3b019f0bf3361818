"""Independent linear-system audit of the push-based protocols.

The simulator moves mass with running sums and timestamp filtering. This
module rebuilds the same run as a sequence of column-stochastic matrices on
an augmented state and checks the two against each other, identity by
identity.

Augmented state layout (size n + (L_d + 1) * m):

- entries 0..n-1: real node values;
- L_d blocks of m entries: in-transit mass at levels 1..L_d (a message
  accepted with effective delay l enters level l and slides one level per
  slot; level 1 pours into the destination);
- final block of m entries: per-arc excess mass (shares whose message was
  lost, superseded, or suppressed by an arc mask).

Per slot, a waking node keeps one share of its value and emits one share per
out-arc. The share of an accepted send enters the transit chain together
with the arc's whole accumulated excess (the running-sum protocol delivers
everything owed on the arc, not just the newest share); the share of any
other send joins the excess. The resulting matrix has column sums exactly 1,
so total mass is preserved, and the weight state (started at one per real
node) evolves under the same matrices.

Effective delay of a send = (receiver's first wake at or after arrival) -
(send slot); per (arc, processing slot) only the newest send is accepted.

A recorded run is audited in windows of W slots (``audit_trace``). Each
window rebuilds its slots from the augmented state the previous one ended
in, and carries on what its identities need from earlier slots: the mass
applied so far, and per arc the processing slot of its last accepted send
and the first send that broke its processing order. Each identity's worst
residual and first bad slot merge across windows with a max and a min, so
a windowed audit reports what one window over the whole run reports, bit
for bit; the whole run is the case W = K. Whether a send is superseded
depends on the sends of the next L_d - 1 slots, so each window's delivery
table reads that far ahead.

W is the most slots whose augmented states, S x (d + 1) cells each, fit in
``faultnet.CHUNK_CELLS`` = 65,536 cells, and at least one. A window's
state, matrices, scatter indices and residuals each hold a small multiple
of that, so the audit's memory stays near a few MiB whatever the span,
while the per-window fixed cost (a few dozen numpy calls) stays a small
share: 283 slots on the 5-node verify_faulty_small network (S = 77,
d = 2), 168 on a 10-node bidirectional cycle with L_d = 5 (S = 130).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

import numpy as np

from .errors import (ConfigurationError, InconsistentScheduleError,
                     VerificationError)
from .faultnet import CHUNK_CELLS, ScheduleRealization
from .graph import Topology

CONTRACTION_DIGITS = 80
# the contraction constants' decimal context; n^(n L_s) leaves the default
# exponent range at large sizes, so it gets the widest one
_CONTRACTION = Context(prec=CONTRACTION_DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN)


# ---------------------------------------------------------------------------
# Delivery table.

def build_delivery_indicators(schedule: ScheduleRealization) -> np.ndarray:
    """Which send each arc accepts, and with which effective delay: a
    (K, m) int table whose entry [k, a] is the effective delay (1..L_d) of
    arc a's send at slot k if it is accepted, else 0.

    A delivered send is processed at the receiver's first wake at or after
    its arrival. Of the sends on one arc that share a processing slot only
    the newest is accepted. The newest sends of an arc's processing slots
    come in send order, so each is newer than the one accepted before it,
    and the first is newer than the receiver's initial timestamp, -1.
    """
    K = schedule.horizon
    topo = schedule.topology
    l_d = schedule.bounds.max_effective_delay
    wake = schedule.wake
    T = wake.shape[0]
    # next_wake[t, i]: node i's first wake at or after slot t, T if none;
    # row T stands for every arrival past the table
    next_wake = np.full((T + 1, topo.n), T, dtype=np.int64)
    slots = np.where(wake, np.arange(T)[:, None], T)
    next_wake[:T] = np.minimum.accumulate(slots[::-1], axis=0)[::-1]
    # delivered sends in arc-major order
    arc, send = np.nonzero(schedule.arrival.T >= 0)
    proc = next_wake[np.minimum(schedule.arrival[send, arc], T),
                     topo.dst[arc]]
    past = proc == T
    bad = past | (proc - send > l_d) | (proc <= send)
    if bad.any():
        a = arc[np.argmax(bad)]
        src, dst = topo.arcs[a]
        what = ("arrival past the realized wake table"
                if past[arc == a].any() else
                "effective delay outside [1, L_d]")
        raise InconsistentScheduleError(f"arc {src}->{dst}: {what}")
    # the newest send of each run of one (arc, processing slot)
    newest = np.ones(send.size, dtype=bool)
    newest[:-1] = (arc[1:] != arc[:-1]) | (proc[1:] != proc[:-1])
    level = np.zeros((K, topo.m), dtype=np.int64)
    level[send[newest], arc[newest]] = (proc - send)[newest]
    return level


# ---------------------------------------------------------------------------
# Augmented system and per-slot matrices.

@dataclass(frozen=True)
class AugmentedLayout:
    topology: Topology
    max_effective_delay: int

    @property
    def size(self) -> int:
        n, m = self.topology.n, self.topology.m
        return n + (self.max_effective_delay + 1) * m

    def transit_index(self, arc: int, level: int) -> int:
        if not 1 <= level <= self.max_effective_delay:
            raise ConfigurationError(f"transit level {level} out of range")
        return self.topology.n + (level - 1) * self.topology.m + arc

    def excess_index(self, arc: int) -> int:
        n, m = self.topology.n, self.topology.m
        return n + self.max_effective_delay * m + arc

    def transit_block(self, level: int) -> slice:
        lo = self.transit_index(0, level)
        return slice(lo, lo + self.topology.m)

    @property
    def excess_block(self) -> slice:
        lo = self.excess_index(0)
        return slice(lo, lo + self.topology.m)


@dataclass(frozen=True)
class SlotMatrices:
    """K slots' mass-flow matrices on one stored structure.

    Entry e of every slot sits in column ``cols[e]``; ``rows[k, e]`` and
    ``data[k, e]`` are its row and value at slot k. Columns are in
    ascending order: real column i holds its diagonal and then one entry
    per out-arc (arc-id order), each transit or excess column one entry.
    A sleeping node's out-arc entries hold an explicit 0.0, so every slot
    stores ``n + m + (L_d + 1) * m`` entries.

    Stepping with the explicit zeros adds ``+0.0`` terms, which is exact
    for finite values. With a non-finite state, ``0 * NaN`` spreads NaN
    into a sleeping node's excess rows, so a NaN run can only fail sooner
    or in more identities.
    """

    size: int
    cols: np.ndarray   # (nnz,)
    rows: np.ndarray   # (K, nnz)
    data: np.ndarray   # (K, nnz)

    @property
    def nnz(self) -> int:
        """Stored entries over all slots."""
        return self.data.size

    def dense(self, k: int) -> np.ndarray:
        out = np.zeros((self.size, self.size))
        out[self.rows[k], self.cols] = self.data[k]
        return out


def build_mass_matrix(layout: AugmentedLayout, wake: np.ndarray,
                      level: np.ndarray) -> SlotMatrices:
    """Every slot's column-stochastic mass-flow matrix.

    wake is (K, n) bool; level is the (K, m) delivery table of
    ``build_delivery_indicators``.

    A waking node keeps one share and sends one per out-arc: into the arc's
    accepted transit level, or into its excess. A sleeping node keeps all
    its mass. Transit mass slides one level down per slot (level 1 pours
    into the destination); the excess rides into the accepted level or
    stays put.
    """
    topo = layout.topology
    n, m, l_d = topo.n, topo.m, layout.max_effective_delay
    wake = np.asarray(wake, dtype=bool)
    K = wake.shape[0]
    if level.shape != (K, m):
        raise ConfigurationError(f"delivery table shape {level.shape} != "
                                 f"({K}, {m})")
    # each arc's outflow row: its accepted transit level, else its excess
    dest = n + np.arange(m) + np.where(level > 0, level - 1, l_d) * m
    # real column i: its diagonal, then its out-arcs in arc-id order
    owner = np.concatenate((np.arange(n), topo.src))
    order = np.argsort(owner, kind="stable")
    cols = np.concatenate((owner[order], np.arange(n, layout.size)))
    share = 1.0 / (topo.out_degree() + 1.0)
    real_rows = np.concatenate((np.broadcast_to(np.arange(n), (K, n)), dest),
                               axis=1)
    real_data = np.concatenate((np.where(wake, share, 1.0),
                                np.where(wake, share, 0.0)[:, topo.src]),
                               axis=1)
    # transit columns slide down; the excess rides into the outflow row
    transit_rows = np.concatenate((topo.dst, n + np.arange((l_d - 1) * m)))
    rows = np.concatenate((real_rows[:, order],
                           np.broadcast_to(transit_rows, (K, l_d * m)),
                           dest), axis=1)
    data = np.concatenate((real_data[:, order],
                           np.ones((K, (l_d + 1) * m))), axis=1)
    return SlotMatrices(layout.size, cols, rows, data)


def audit_window(layout: AugmentedLayout, dim: int) -> int:
    """Slots per audit window for a d = `dim` run on `layout`: the most whose
    augmented states fit in CHUNK_CELLS cells, and at least one."""
    return max(1, CHUNK_CELLS // (layout.size * (dim + 1)))


@dataclass(frozen=True)
class AuditCarry:
    """What an audit window hands the next, which starts at slot `first`."""

    first: int
    state: np.ndarray       # (size, d+1) augmented state at boundary first
    injected: np.ndarray    # (d,) mass applied in the slots before first
    processed: np.ndarray   # (m,) each arc's last processing slot, -1 none
    broken: np.ndarray      # (m,) first send that broke its order, -1 none

    @classmethod
    def initial(cls, layout: AugmentedLayout, x0: np.ndarray) -> "AuditCarry":
        """Slot 0 of a run from x0, (n, d): weight one at every real node,
        nothing in transit or in excess."""
        n, dim = x0.shape
        state = np.zeros((layout.size, dim + 1))
        state[:n, :dim] = x0
        state[:n, dim] = 1.0
        none = np.full(layout.topology.m, -1, dtype=np.int64)
        return cls(0, state, np.zeros(dim), none, none)


@dataclass
class AuditTrace:
    """Augmented-state trajectory over slots first .. first + W - 1,
    computed independently of the simulator.

    Mass and weight share one state array; ``chi``/``psi`` are views. Row
    0 is boundary `first`.
    """

    layout: AugmentedLayout
    level: np.ndarray        # (W, m) delivery table
    state: np.ndarray        # (W+1, size, d+1)  mass, then weight
    matrices: SlotMatrices   # W slots
    first: int
    injected: np.ndarray     # (W+1, d) mass applied before each boundary
    processed: np.ndarray    # (m,) as in AuditCarry, at the window's end
    broken: np.ndarray       # (m,) as in AuditCarry, at the window's end

    @property
    def chi(self) -> np.ndarray:
        return self.state[..., :-1]

    @property
    def psi(self) -> np.ndarray:
        return self.state[..., -1]

    @property
    def end(self) -> AuditCarry:
        """What the next window starts from."""
        return AuditCarry(self.first + self.level.shape[0],
                          self.state[-1].copy(), self.injected[-1].copy(),
                          self.processed, self.broken)


def run_linear_audit(trace, slots: int | None = None,
                     start: AuditCarry | None = None) -> AuditTrace:
    """Evolve the augmented system along a recorded run: `slots` slots
    from where `start` left off (None: from slot 0), to the horizon when
    `slots` is None.

    trace is an ``engine.Trace``, from the engine or the reference
    simulator. The rebuild reads nothing else: the schedule it recorded,
    its start state ``x[0]`` and its ``applied`` moves, which are added to
    real coordinates before each slot's flow. Slots where no move was
    applied skip the addition.

    Each slot is one ``np.bincount`` over the stored entries in column
    order, so every row adds its terms in column order, as a CSC product
    does.
    """
    schedule = trace.schedule
    l_d = schedule.bounds.max_effective_delay
    layout = AugmentedLayout(schedule.topology, l_d)
    if start is None:
        start = AuditCarry.initial(layout, trace.x[0])
    first = start.first
    rest = schedule.horizon - first
    slots = rest if slots is None else slots
    view = trace.window(first, slots)
    # a send superseded by one of the next L_d - 1 slots is not accepted
    level = build_delivery_indicators(
        trace.window(first, min(slots + l_d - 1, rest)).schedule)[:slots]
    processed, broken = _exclusion_windows(level, first, start.processed,
                                           start.broken)
    mats = build_mass_matrix(layout, view.wake, level)
    applied = view.applied
    n, dim = applied.shape[1:]
    size, width = layout.size, dim + 1
    # mass in the first d columns, weight in the last
    state = np.empty((slots + 1, size, width))
    state[0] = start.state
    injected = np.cumsum(np.concatenate((start.injected[None],
                                         applied.sum(axis=1))), axis=0)
    flat = (mats.rows[:, :, None] * width
            + np.arange(width)).reshape(slots, mats.cols.size * width)
    moved = applied.any(axis=(1, 2)).tolist()
    for k in range(slots):
        cur = state[k]
        if moved[k]:
            cur = cur.copy()
            cur[:n, :dim] += applied[k]
        terms = mats.data[k][:, None] * cur[mats.cols]
        state[k + 1] = np.bincount(flat[k], terms.reshape(-1),
                                   minlength=size * width).reshape(size,
                                                                    width)
    return AuditTrace(layout, level, state, mats, first, injected,
                      processed, broken)


# ---------------------------------------------------------------------------
# Cross-validation report.

@dataclass
class IdentityCheck:
    name: str
    max_residual: float
    first_bad_slot: int | None = None

    def line(self) -> str:
        status = "ok" if self.first_bad_slot is None \
            else f"slot {self.first_bad_slot}"
        return f"{self.name}  max_residual={self.max_residual:.3e}  {status}"


@dataclass
class AuditReport:
    checks: list[IdentityCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.first_bad_slot is None for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]

    def to_text(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def merged(self, later: "AuditReport") -> "AuditReport":
        """This report and a later window's, identity by identity: the
        larger residual (NaN if either is) and the first bad slot."""
        return AuditReport([
            IdentityCheck(a.name,
                          float(np.maximum(a.max_residual, b.max_residual)),
                          b.first_bad_slot if a.first_bad_slot is None
                          else a.first_bad_slot)
            for a, b in zip(self.checks, later.checks)])

    def raise_on_failure(self) -> None:
        for c in self.checks:
            if c.first_bad_slot is not None:
                raise VerificationError(
                    f"identity '{c.name}' fails first at slot "
                    f"{c.first_bad_slot} (max residual {c.max_residual:.3e})",
                )


def _check(name: str, residual: np.ndarray, tol: float,
           first: int = 0) -> IdentityCheck:
    """residual has slot as leading axis, its row 0 at slot `first`; reduce
    the rest. A NaN residual fails."""
    flat = residual.reshape(residual.shape[0], -1)
    if flat.shape[1] == 0:
        return IdentityCheck(name, 0.0, None)
    per_slot = np.max(np.abs(flat), axis=1)
    worst = float(per_slot.max(initial=0.0))
    bad = np.flatnonzero(~(per_slot <= tol))
    return IdentityCheck(name, worst,
                         first + int(bad[0]) if bad.size else None)


def cross_validate(trace, audit: AuditTrace) -> AuditReport:
    """Check every identity linking a simulator trace to the audit chain
    over the audit's window and return the report; ``audit_trace`` merges
    the windows' reports and raises on their failures.

    trace is the whole ``engine.Trace``, from the engine or the reference
    simulator; mass conservation counts its ``applied`` moves from its
    start state ``x0 = x[0]``. The identities that compare states, ledgers
    and totals use the fixed tolerance ``1e-9 * (1 + ||x0||_1)``; the
    weight-range, weight-sum and matrix checks use their own absolute
    tolerances. State identities read the window's boundaries, its first
    and last included, and the delivery-order one counts every arc broken
    up to the window's end.
    """
    topo = audit.layout.topology
    n = topo.n
    x0 = trace.x[0]
    tol = 1e-9 * (1.0 + float(np.abs(x0).sum()))
    K = audit.level.shape[0]
    win = trace.window(audit.first, K)
    layout = audit.layout
    report = AuditReport()

    def check(name: str, residual: np.ndarray, bound: float) -> None:
        report.checks.append(_check(name, residual, bound, audit.first))

    # (i), (ii): real coordinates of the augmented state match the simulator.
    check("chi-real-equals-x", audit.chi[:, :n, :] - win.x, tol)
    check("psi-real-equals-y", audit.psi[:, :n] - win.y, tol)

    # (iii): per arc, the receiver's absorbed-mass increment at slot k is
    # exactly the level-1 transit mass at slot k.
    lvl1 = audit.chi[:K, layout.transit_block(1), :]
    check("rho-increment-equals-level1",
          win.rho_x[1:] - win.rho_x[:-1] - lvl1, tol)
    lvl1_y = audit.psi[:K, layout.transit_block(1)]
    check("rho-y-increment-equals-level1",
          win.rho_y[1:] - win.rho_y[:-1] - lvl1_y, tol)

    # (iv): sent mass splits exactly into absorbed + in-transit + excess.
    transit_sum = np.zeros_like(audit.chi[:, layout.excess_block, :])
    for lvl in range(1, layout.max_effective_delay + 1):
        transit_sum += audit.chi[:, layout.transit_block(lvl), :]
    lhs = audit.chi[:, layout.excess_block, :] + transit_sum + win.rho_x
    phi_src = win.phi_x[:, topo.src, :]
    check("excess-plus-transit-plus-absorbed", lhs - phi_src, tol)

    # Sum preservation: total mass equals initial mass plus injections.
    total = audit.chi.sum(axis=1)                      # (K+1, d)
    expect = x0.sum(axis=0)[None, :] + audit.injected
    check("mass-conservation", total - expect, tol)
    check("weight-conservation", audit.psi.sum(axis=1)[:, None] - float(n),
          1e-9)

    # Weight bounds: real entries strictly positive, all entries in [0, n].
    psi_real = audit.psi[:, :n]
    check("weight-real-positive", np.where(psi_real > 0.0, 0.0, 1.0), 0.5)
    check("weight-range", np.maximum(np.maximum(-audit.psi, 0.0),
                                     np.maximum(audit.psi - n, 0.0)), 1e-9)

    # Zero weight forces zero mass (exact: zeros only ever combine linearly).
    zero_psi = audit.psi == 0.0
    check("mass-zero-on-zero-weight",
          np.where(zero_psi[:, :, None], audit.chi, 0.0), 0.0)

    # Matrix structure: column sums, entry lower bound, real diagonals, read
    # off the stored entries of every slot. Column sums add each column's
    # entries in stored order; a real column's nonzero entries are all
    # equal, so any order gives the same bits.
    data = audit.matrices.data
    starts = np.flatnonzero(np.diff(audit.matrices.cols, prepend=-1))
    entry_floor = 1.0 / (topo.out_degree().max(initial=0) + 1.0)
    check("matrix-column-sums", np.add.reduceat(data, starts, axis=1) - 1.0,
          1e-15)
    check("matrix-entry-floor",
          np.where(data != 0.0, np.maximum(entry_floor - data, 0.0), 0.0),
          1e-15)
    check("matrix-real-diagonal-positive",
          np.where(data[:, starts[:n]] > 0.0, 0.0, 1.0), 0.0)

    # Delivery exclusions and empty-above-level structure.
    broken = audit.broken[audit.broken >= 0]
    report.checks.append(IdentityCheck(
        "delivery-exclusion-windows", float(broken.size),
        int(broken.min()) if broken.size else None))
    check("no-transit-above-accepted-level", _levels_above_accepted(audit),
          0.0)

    # Excess recursion against simulator running sums.
    phi_inc = phi_src[1:] - phi_src[:-1]               # (K, m, d)
    u = audit.chi[:, layout.excess_block, :]
    u_expect = np.where(audit.level[:, :, None] > 0, 0.0, u[:-1] + phi_inc)
    check("excess-recursion", u[1:] - u_expect, tol)

    return report


def _exclusion_windows(level: np.ndarray, first: int,
                       processed: np.ndarray, broken: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """No two accepted sends on one arc may share a processing slot, and
    processing order must follow send order.

    level is the delivery table of slots first, first + 1, ...; processed
    and broken are per arc, as in ``AuditCarry``, before those slots.
    Returns both through the table's last slot: the processing slot of
    each arc's last accepted send, and the first send slot that was
    processed no later than the accepted send before it."""
    processed, broken = processed.copy(), broken.copy()
    arc, send = np.nonzero(level.T)
    proc = send + level[send, arc] + first
    send += first
    # each accepted send against the one before it on its arc
    head = np.ones(arc.size, dtype=bool)
    head[1:] = arc[1:] != arc[:-1]
    prev = np.empty_like(proc)
    prev[head] = processed[arc[head]]
    prev[1:][~head[1:]] = proc[:-1][~head[1:]]
    bad = np.flatnonzero(proc <= prev)
    # sends ascend within an arc, so an arc's first bad send comes first
    arcs, at = np.unique(arc[bad], return_index=True)
    fresh = broken[arcs] < 0
    broken[arcs[fresh]] = send[bad[at[fresh]]]
    # the last accepted send of each arc
    last = np.ones(arc.size, dtype=bool)
    last[:-1] = head[1:]
    processed[arc[last]] = proc[last]
    return processed, broken


def _levels_above_accepted(audit: AuditTrace) -> np.ndarray:
    """Transit mass strictly above an accepted send's level, per slot.

    The largest |entry| over every transit block above an accepted level;
    a block holding NaN never raises the maximum.
    """
    layout = audit.layout
    n, m = layout.topology.n, layout.topology.m
    K = audit.chi.shape[0] - 1
    l_d = layout.max_effective_delay
    level = audit.level                                     # (K, m)
    transit = audit.chi[:K, n:n + l_d * m, :].reshape(K, l_d, m, -1)
    k_idx, l_idx, a_idx = np.nonzero(
        (level[:, None, :] > 0)
        & (np.arange(1, l_d + 1)[None, :, None] > level[:, None, :]))
    block = np.abs(transit[k_idx, l_idx, a_idx]).max(axis=1)
    worst = np.zeros(K)
    np.maximum.at(worst, k_idx, np.where(block > 0.0, block, 0.0))
    return worst[:, None]


# ---------------------------------------------------------------------------
# Contraction constants and envelopes.

@dataclass(frozen=True)
class ContractionBound:
    """Worst-case geometric-decay constants for a given network size.

    alpha/lam/delta are decimals of CONTRACTION_DIGITS significant digits;
    the vacuous flag is set when lam rounds to 1.0 in double precision, in
    which case the envelope carries no information at float scale.
    """

    n: int
    max_receipt_gap: int
    alpha: Decimal
    lam: Decimal
    delta: Decimal
    vacuous: bool


def contraction_bound(n: int, max_receipt_gap: int) -> ContractionBound:
    if n < 2 or max_receipt_gap < 2:
        raise ConfigurationError(
            "contraction constants need n >= 2 and receipt gap >= 2")
    with localcontext(_CONTRACTION):
        alpha = 1 / Decimal(n) ** (n * max_receipt_gap)
        na6 = n * alpha ** 6
        delta = 1 / (1 - na6)
        lam = (1 - na6) ** (Decimal(1) / (2 * n * max_receipt_gap))
        vacuous = float(lam) >= 1.0
        return ContractionBound(n, max_receipt_gap, alpha, lam, delta,
                                vacuous)


def envelope_check(z: np.ndarray, x0: np.ndarray,
                   bound: ContractionBound) -> tuple[bool, int | None]:
    """Per-slot check of |z_i(k) - mean(x0)| <= delta * lam^k * l1(x0).

    z is (K+1, n, d); the comparison runs per coordinate at
    CONTRACTION_DIGITS digits, so a bound that is vacuous in double precision
    (its decay lies below float resolution) is still evaluated exactly.
    Returns (ok, first failing slot).
    """
    x0 = np.asarray(x0, dtype=float)
    mean = x0.mean(axis=0)
    err = np.abs(z - mean[None, None, :]).max(axis=1)    # (K+1, d)
    l1 = np.abs(x0).sum(axis=0)                          # (d,)
    with localcontext(_CONTRACTION):
        factor = bound.delta
        for k in range(err.shape[0]):
            for c in range(err.shape[1]):
                env = factor * Decimal(float(l1[c]))
                if Decimal(float(err[k, c])) > env:
                    return False, k
            factor *= bound.lam
    return True, None


def tracking_bound_series(bound: ContractionBound, x0: np.ndarray,
                          applied: np.ndarray) -> np.ndarray:
    """Perturbation-tracking ceiling per slot and coordinate.

    bound(k+1) = delta * lam^k * l1(x0) + sum_{t=1..k} delta * lam^(k-t)
    * l1(applied(t)); returned as a float array of shape (K+1, d) with
    entry 0 = delta * l1(x0).
    """
    x0 = np.asarray(x0, dtype=float)
    K, n, dim = applied.shape
    l1_x0 = np.abs(x0).sum(axis=0)
    l1_delta = np.abs(applied).sum(axis=1)               # (K, d)
    out = np.empty((K + 1, dim))
    with localcontext(_CONTRACTION):
        for c in range(dim):
            acc = Decimal(0)
            base = Decimal(float(l1_x0[c]))
            out[0, c] = float(bound.delta * base)
            for k in range(K):
                # advance one slot: decay previous terms, add slot-k term
                acc = acc * bound.lam + Decimal(float(l1_delta[k, c]))
                out[k + 1, c] = float(bound.delta *
                                      (bound.lam ** (k + 1) * base + acc))
    return out


def window_positivity_check(audit: AuditTrace,
                            max_receipt_gap: int) -> tuple[bool, int | None]:
    """Products over every window of n * L_s consecutive slots must have
    strictly positive first n rows. Intended for small instances."""
    n = audit.layout.topology.n
    window = n * max_receipt_gap
    K = audit.matrices.data.shape[0]
    if K < window:
        raise ConfigurationError(
            f"audit span {K} shorter than one window ({window})")
    dense = [audit.matrices.dense(k) for k in range(K)]
    for start in range(K - window + 1):
        prod = dense[start]
        for k in range(start + 1, start + window):
            prod = dense[k] @ prod
        if not np.all(prod[:n, :] > 0.0):
            return False, start
    return True, None


# ---------------------------------------------------------------------------
# One-call verification: simulate, rebuild, cross-check.

def verify_run(topology: Topology, bounds, x0: np.ndarray, horizon: int,
               master_seed: int, run: int = 0,
               mask: np.ndarray | None = None) -> AuditReport:
    """Simulate one averaging run with a recorded trace and audit it
    (``audit_trace``), raising on any failure.

    A run with a wake-time update is audited from its own trace:
    ``audit_trace(run_protocol(..., update=u, record_trace=True).trace)``.
    """
    from .engine import run_protocol

    result = run_protocol(topology, bounds, x0, horizon, master_seed,
                          runs=(run,), mask=mask, record_trace=True)
    return audit_trace(result.trace)


def audit_trace(trace) -> AuditReport:
    """Rebuild a recorded ``engine.Trace`` as the augmented linear system,
    cross-check the two, and return the identity report (raising on any
    failure).

    The trace is the only input: its schedule, start state and applied
    moves (see ``run_linear_audit``).
    """
    report = audit_report(trace)
    report.raise_on_failure()
    return report


def audit_report(trace, window: int | None = None) -> AuditReport:
    """The identity report of a recorded ``engine.Trace``, cross-checked
    window by window and merged; it does not depend on `window`, the
    number of slots per window (None picks ``audit_window``)."""
    schedule = trace.schedule
    horizon = schedule.horizon
    if window is None:
        window = audit_window(AugmentedLayout(
            schedule.topology, schedule.bounds.max_effective_delay),
            trace.x.shape[-1])
    if window < 1:
        raise ConfigurationError("window: must be >= 1")
    if horizon < 1:
        raise ConfigurationError("audit: the trace holds no slot")
    report, carry = None, None
    for first in range(0, horizon, window):
        audit = run_linear_audit(trace, min(window, horizon - first), carry)
        part, carry = cross_validate(trace, audit), audit.end
        # free this window's arrays before the next window builds its own
        del audit
        report = part if report is None else report.merged(part)
    return report


# ---------------------------------------------------------------------------
# Optimizer diagnostic: the "as if it stepped every slot" average.

@dataclass
class WbarSeries:
    wbar: np.ndarray          # (K+1, d)
    deviation: np.ndarray     # (K+1, n) distance of each estimate from wbar


def wbar_diagnostic(trace, objective, ledger) -> WbarSeries:
    """Average of per-node values with pending compensated steps removed.

    For real nodes, w_i(k) = x_i(k) - (sum of step sizes for the slots slept
    through so far, excluding slot k) * exact local gradient at the current
    estimate; virtual mass enters unchanged. The average tracks a
    centralized gradient recursion, and every estimate converges to it.
    """
    x, z = trace.x, trace.z
    K1, n, _ = x.shape
    grads = objective.batch_local_gradients(z)
    pending = ledger.prefix[:K1, None] - ledger.prefix[trace.kappa + 1]
    w_real = x - pending[..., None] * grads
    virtual = trace.aug_mean * n - x.sum(axis=1)
    wbar = (w_real.sum(axis=1) + virtual) / n
    return WbarSeries(wbar, np.linalg.norm(z - wbar[:, None], axis=2))
