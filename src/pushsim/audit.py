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
  lost, superseded, stale, or suppressed by an arc mask).

Per slot, a waking node keeps one share of its value and emits one share per
out-arc. The share of an accepted send enters the transit chain together
with the arc's whole accumulated excess (the running-sum protocol delivers
everything owed on the arc, not just the newest share); the share of any
other send joins the excess. The resulting matrix has column sums exactly 1,
so total mass is preserved, and the weight state (started at one per real
node) evolves under the same matrices.

Effective delay of a send = (receiver's first wake at or after arrival) -
(send slot); per (arc, processing slot) only the newest send is accepted,
and the first accepted timestamp must strictly exceed the initial timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath
import numpy as np

from .errors import (ConfigurationError, InconsistentScheduleError,
                     VerificationError)
from .faultnet import ScheduleRealization
from .graph import Topology

CONTRACTION_DPS = 80


# ---------------------------------------------------------------------------
# Delivery indicators.

@dataclass
class DeliveryIndicators:
    """Per-slot acceptance structure derived from a realized schedule.

    tau[k, a, l-1] is True when the send on arc a at slot k is accepted and
    will be processed with effective delay l. At most one level per (k, a).
    """

    wake: np.ndarray   # (K, n) bool
    tau: np.ndarray    # (K, m, L_d) bool

    @property
    def accepted_level(self) -> np.ndarray:
        """(K, m) int: effective delay of the accepted send, 0 if none."""
        K, m, l_d = self.tau.shape
        levels = np.arange(1, l_d + 1, dtype=np.int64)
        return (self.tau * levels[None, None, :]).sum(axis=2)


def build_delivery_indicators(schedule: ScheduleRealization,
                              init_timestamp: int) -> DeliveryIndicators:
    """Which send each arc accepts, and with which effective delay.

    A delivered send is processed at the receiver's first wake at or after
    its arrival. Of the sends on one arc that share a processing slot only
    the newest is accepted, and only if it is newer than ``init_timestamp``
    (receivers start with that timestamp on every in-arc). The newest sends
    of an arc's processing slots come in send order, so each is newer than
    the one accepted before it and only the initial timestamp can make one
    stale.
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
    keep = newest & (send > init_timestamp)
    tau = np.zeros((K, topo.m, l_d), dtype=bool)
    tau[send[keep], arc[keep], (proc - send - 1)[keep]] = True
    return DeliveryIndicators(wake[:K].copy(), tau)


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
                      tau: np.ndarray) -> SlotMatrices:
    """Every slot's column-stochastic mass-flow matrix.

    wake is (K, n) bool; tau is (K, m, L_d) bool with at most one level set
    per slot and arc (two set levels violate the single-delivery structure
    and raise).

    A waking node keeps one share and sends one per out-arc: into the arc's
    accepted transit level, or into its excess. A sleeping node keeps all
    its mass. Transit mass slides one level down per slot (level 1 pours
    into the destination); the excess rides into the accepted level or
    stays put.
    """
    topo = layout.topology
    n, m, l_d = topo.n, topo.m, layout.max_effective_delay
    if tau.shape[1:] != (m, l_d):
        raise ConfigurationError(f"tau slice shape {tau.shape[1:]} != "
                                 f"({m}, {l_d})")
    # each arc's outflow row: its accepted transit level, else its excess;
    # the shift is nonzero exactly when a level is set, so a second level
    # on one arc shows up as more set levels than shifted arcs
    shift = tau @ ((np.arange(l_d) - l_d) * m)
    if np.count_nonzero(tau) > np.count_nonzero(shift):
        _, a = np.argwhere(tau.sum(axis=2) > 1)[0]
        raise InconsistentScheduleError(
            f"arc {topo.src[a]}->{topo.dst[a]}: "
            "two delivery levels in one slot")
    dest = n + l_d * m + np.arange(m) + shift                # (K, m)

    wake = np.asarray(wake, dtype=bool)
    K = wake.shape[0]
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


@dataclass
class AuditTrace:
    """Augmented-state trajectory computed independently of the simulator."""

    layout: AugmentedLayout
    indicators: DeliveryIndicators
    chi: np.ndarray          # (K+1, size, d)
    psi: np.ndarray          # (K+1, size)
    matrices: SlotMatrices   # K slots


def run_linear_audit(schedule: ScheduleRealization, x0: np.ndarray,
                     init_timestamp: int,
                     applied: np.ndarray | None = None) -> AuditTrace:
    """Evolve the augmented system along one realized schedule.

    applied, if given, is the (K, n, d) array of value injections actually
    applied by the simulator at wake slots (perturbations or optimizer
    moves); they are added to real coordinates before each slot's flow.

    Each slot is one ``np.bincount`` over the stored entries in column
    order, so every row adds its terms in column order, as a CSC product
    does.
    """
    topo, bounds = schedule.topology, schedule.bounds
    K = schedule.horizon
    x0 = np.asarray(x0, dtype=float)
    n, dim = x0.shape
    layout = AugmentedLayout(topo, bounds.max_effective_delay)
    ind = build_delivery_indicators(schedule, init_timestamp)
    mats = build_mass_matrix(layout, ind.wake, ind.tau)
    size, width = layout.size, dim + 1
    # mass in the first d columns, weight in the last
    state = np.zeros((K + 1, size, width))
    state[0, :n, :dim] = x0
    state[0, :n, dim] = 1.0
    flat = (mats.rows[:, :, None] * width
            + np.arange(width)).reshape(K, mats.cols.size * width)
    for k in range(K):
        cur = state[k]
        if applied is not None:
            cur = cur.copy()
            cur[:n, :dim] += applied[k]
        terms = mats.data[k][:, None] * cur[mats.cols]
        state[k + 1] = np.bincount(flat[k], terms.reshape(-1),
                                   minlength=size * width).reshape(size,
                                                                    width)
    return AuditTrace(layout, ind, np.ascontiguousarray(state[..., :dim]),
                      np.ascontiguousarray(state[..., dim]), mats)


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

    def raise_on_failure(self) -> None:
        for c in self.checks:
            if c.first_bad_slot is not None:
                raise VerificationError(
                    f"identity '{c.name}' fails first at slot "
                    f"{c.first_bad_slot} (max residual {c.max_residual:.3e})",
                )


def _check(name: str, residual: np.ndarray, tol: float) -> IdentityCheck:
    """residual has slot as leading axis; reduce the rest. A NaN residual
    fails."""
    flat = residual.reshape(residual.shape[0], -1)
    if flat.shape[1] == 0:
        return IdentityCheck(name, 0.0, None)
    per_slot = np.max(np.abs(flat), axis=1)
    worst = float(per_slot.max(initial=0.0))
    bad = np.flatnonzero(~(per_slot <= tol))
    return IdentityCheck(name, worst, int(bad[0]) if bad.size else None)


def cross_validate(trace, audit: AuditTrace, x0: np.ndarray,
                   applied: np.ndarray | None = None,
                   tol: float | None = None) -> AuditReport:
    """Assert every identity linking the simulator trace to the audit chain.

    trace is an engine Trace (or the reference simulator's run record, which
    has the same fields). Raises VerificationError on the first identity
    whose residual exceeds the tolerance; the full report is still built.
    """
    topo = audit.layout.topology
    n, m = topo.n, topo.m
    x0 = np.asarray(x0, dtype=float)
    scale = 1.0 + float(np.abs(x0).sum())
    if tol is None:
        tol = 1e-9 * scale
    K = audit.chi.shape[0] - 1
    layout = audit.layout
    report = AuditReport()

    # (i), (ii): real coordinates of the augmented state match the simulator.
    report.checks.append(_check("chi-real-equals-x",
                                audit.chi[:, :n, :] - trace.x, tol))
    report.checks.append(_check("psi-real-equals-y",
                                audit.psi[:, :n] - trace.y, tol))

    # (iii): per arc, the receiver's absorbed-mass increment at slot k is
    # exactly the level-1 transit mass at slot k.
    lvl1 = audit.chi[:K, layout.transit_block(1), :]
    rho_inc = trace.rho_x[1:] - trace.rho_x[:-1]
    report.checks.append(_check("rho-increment-equals-level1",
                                rho_inc - lvl1, tol))
    lvl1_y = audit.psi[:K, layout.transit_block(1)]
    rho_y_inc = trace.rho_y[1:] - trace.rho_y[:-1]
    report.checks.append(_check("rho-y-increment-equals-level1",
                                rho_y_inc - lvl1_y, tol))

    # (iv): sent mass splits exactly into absorbed + in-transit + excess.
    transit_sum = np.zeros_like(audit.chi[:, layout.excess_block, :])
    for lvl in range(1, layout.max_effective_delay + 1):
        transit_sum += audit.chi[:, layout.transit_block(lvl), :]
    lhs = audit.chi[:, layout.excess_block, :] + transit_sum + trace.rho_x
    phi_src = trace.phi_x[:, topo.src, :]
    report.checks.append(_check("excess-plus-transit-plus-absorbed",
                                lhs - phi_src, tol))

    # Sum preservation: total mass equals initial mass plus injections.
    total = audit.chi.sum(axis=1)                      # (K+1, d)
    injected = np.zeros_like(total)
    if applied is not None:
        injected[1:] = np.cumsum(applied.sum(axis=1), axis=0)
    expect = x0.sum(axis=0)[None, :] + injected
    report.checks.append(_check("mass-conservation", total - expect, tol))
    report.checks.append(_check("weight-conservation",
                                audit.psi.sum(axis=1)[:, None] - float(n),
                                1e-9))

    # Weight bounds: real entries strictly positive, all entries in [0, n].
    psi_real = audit.psi[:, :n]
    report.checks.append(_check("weight-real-positive",
                                np.where(psi_real > 0.0, 0.0, 1.0), 0.5))
    report.checks.append(_check("weight-range",
                                np.maximum(np.maximum(-audit.psi, 0.0),
                                           np.maximum(audit.psi - n, 0.0)),
                                1e-9))

    # Zero weight forces zero mass (exact: zeros only ever combine linearly).
    zero_psi = audit.psi == 0.0
    masked = np.where(zero_psi[:, :, None], audit.chi, 0.0)
    report.checks.append(_check("mass-zero-on-zero-weight", masked, 0.0))

    # Matrix structure: column sums, entry lower bound, real diagonals.
    entry_floor = 1.0 / (topo.out_degree().max(initial=0) + 1.0)
    report.checks.extend(_matrix_structure_checks(audit.matrices, n,
                                                  entry_floor))

    # Delivery-indicator exclusions and empty-above-level structure.
    report.checks.append(_check("single-delivery-level",
                                np.maximum(
                                    audit.indicators.tau.sum(axis=2) - 1, 0
                                ).astype(float)[:, :, None], 0.5))
    excl, excl_bad = _exclusion_windows(audit.indicators)
    report.checks.append(IdentityCheck("delivery-exclusion-windows",
                                       excl, excl_bad))
    above = _levels_above_accepted(audit)
    report.checks.append(_check("no-transit-above-accepted-level",
                                above, 0.0))

    # Excess recursion against simulator running sums.
    phi_inc = phi_src[1:] - phi_src[:-1]               # (K, m, d)
    accepted = audit.indicators.tau.any(axis=2)        # (K, m)
    u = audit.chi[:, layout.excess_block, :]
    u_expect = np.where(accepted[:, :, None], 0.0, u[:-1] + phi_inc)
    report.checks.append(_check("excess-recursion", u[1:] - u_expect, tol))

    return report


def _matrix_structure_checks(matrices: SlotMatrices, n: int,
                             entry_floor: float) -> list[IdentityCheck]:
    """Column sums equal to one, nonzero entries at or above the floor, and
    positive real diagonals, read off the stored entries of every slot.

    Column sums add each column's entries in stored order; a real column's
    nonzero entries are all equal, so any order gives the same bits.
    """
    data = matrices.data
    starts = np.flatnonzero(np.diff(matrices.cols, prepend=-1))
    residuals = (
        np.abs(np.add.reduceat(data, starts, axis=1) - 1.0).max(
            axis=1, initial=0.0),
        np.where(data != 0.0, entry_floor - data, 0.0).max(axis=1,
                                                           initial=0.0),
        np.any(data[:, starts[:n]] <= 0.0, axis=1).astype(float))
    checks = []
    for name, res, tol in zip(("matrix-column-sums", "matrix-entry-floor",
                               "matrix-real-diagonal-positive"),
                              residuals, (1e-15, 1e-15, 0.0)):
        bad = np.flatnonzero(res > tol)
        checks.append(IdentityCheck(name, float(res.max(initial=0.0)),
                                    int(bad[0]) if bad.size else None))
    return checks


def _exclusion_windows(ind: DeliveryIndicators) -> tuple[float, int | None]:
    """No two accepted sends on one arc may share a processing slot, and
    processing order must follow send order. Returns (arcs violating,
    earliest send slot that breaks the order)."""
    arc, send, level = np.nonzero(ind.tau.transpose(1, 0, 2))
    proc = send + level
    bad = (arc[1:] == arc[:-1]) & (proc[1:] <= proc[:-1])
    if not bad.any():
        return 0.0, None
    return float(np.unique(arc[1:][bad]).size), int(send[1:][bad].min())


def _levels_above_accepted(audit: AuditTrace) -> np.ndarray:
    """Transit mass strictly above an accepted send's level, per slot.

    The largest |entry| over every transit block above an accepted level;
    a block holding NaN never raises the maximum.
    """
    layout = audit.layout
    n, m = layout.topology.n, layout.topology.m
    K = audit.chi.shape[0] - 1
    l_d = layout.max_effective_delay
    level = audit.indicators.accepted_level                 # (K, m)
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

    alpha/lam/delta are arbitrary-precision values; the vacuous flag is set
    when lam rounds to 1.0 in double precision, in which case the envelope
    carries no information at float scale.
    """

    n: int
    max_receipt_gap: int
    alpha: mpmath.mpf
    lam: mpmath.mpf
    delta: mpmath.mpf
    vacuous: bool


def contraction_bound(n: int, max_receipt_gap: int) -> ContractionBound:
    if n < 2 or max_receipt_gap < 2:
        raise ConfigurationError(
            "contraction constants need n >= 2 and receipt gap >= 2")
    with mpmath.workdps(CONTRACTION_DPS):
        alpha = mpmath.mpf(1) / mpmath.mpf(n) ** (n * max_receipt_gap)
        na6 = n * alpha ** 6
        delta = 1 / (1 - na6)
        lam = (1 - na6) ** (mpmath.mpf(1) / (2 * n * max_receipt_gap))
        vacuous = float(lam) >= 1.0
        return ContractionBound(n, max_receipt_gap, alpha, lam, delta,
                                vacuous)


def envelope_check(z: np.ndarray, x0: np.ndarray,
                   bound: ContractionBound) -> tuple[bool, int | None]:
    """Per-slot check of |z_i(k) - mean(x0)| <= delta * lam^k * l1(x0).

    z is (K+1, n, d); the comparison runs per coordinate at
    CONTRACTION_DPS digits, so a bound that is vacuous in double precision
    (its decay lies below float resolution) is still evaluated exactly.
    Returns (ok, first failing slot).
    """
    x0 = np.asarray(x0, dtype=float)
    mean = x0.mean(axis=0)
    err = np.abs(z - mean[None, None, :]).max(axis=1)    # (K+1, d)
    l1 = np.abs(x0).sum(axis=0)                          # (d,)
    with mpmath.workdps(CONTRACTION_DPS):
        factor = bound.delta
        for k in range(err.shape[0]):
            for c in range(err.shape[1]):
                env = factor * mpmath.mpf(float(l1[c]))
                if mpmath.mpf(float(err[k, c])) > env:
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
    with mpmath.workdps(CONTRACTION_DPS):
        for c in range(dim):
            acc = mpmath.mpf(0)
            base = mpmath.mpf(float(l1_x0[c]))
            out[0, c] = float(bound.delta * base)
            for k in range(K):
                # advance one slot: decay previous terms, add slot-k term
                acc = acc * bound.lam + mpmath.mpf(float(l1_delta[k, c]))
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
               master_seed: int, run: int = 0, init_timestamp: int = 0,
               update=None, mask: np.ndarray | None = None) -> AuditReport:
    """Simulate one run and audit it (``audit_trace``), raising on any
    failure.

    update is the run's wake-time update (``engine.run_protocol``), such as
    ``pushsum.Injection`` or ``optimizer.GradientStep`` built for this run;
    the moves it applies enter the rebuild as injections.
    """
    from .engine import run_protocol

    x0 = np.asarray(x0, dtype=float)
    result = run_protocol(topology, bounds, x0, horizon, master_seed,
                          runs=(run,), init_timestamp=init_timestamp,
                          update=update, mask=mask, record_trace=True)
    trace = result.trace
    return audit_trace(trace, x0, init_timestamp,
                       applied=trace.applied if update is not None else None)


def audit_trace(trace, x0: np.ndarray, init_timestamp: int = 0,
                applied: np.ndarray | None = None) -> AuditReport:
    """Rebuild a recorded engine trace as the augmented linear system on the
    schedule the engine recorded, cross-check the two, and return the
    identity report (raising on any failure).

    applied is the trace's ``applied`` moves when the run had a wake-time
    update, else None.
    """
    x0 = np.asarray(x0, dtype=float)
    audit = run_linear_audit(trace.schedule, x0, init_timestamp,
                             applied=applied)
    report = cross_validate(trace, audit, x0, applied=applied)
    report.raise_on_failure()
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
    K1, n, dim = trace.x.shape
    aug_mean = trace.aug_mean
    wbar = np.empty((K1, dim))
    dev = np.empty((K1, n))
    prefix = ledger.prefix
    for k in range(K1):
        grads = objective.batch_local_gradients(trace.z[k][None])[0]
        pending = prefix[k] - prefix[trace.kappa[k] + 1]     # (n,)
        w_real = trace.x[k] - pending[:, None] * grads
        virtual = aug_mean[k] * n - trace.x[k].sum(axis=0)
        wbar[k] = (w_real.sum(axis=0) + virtual) / n
        dev[k] = np.linalg.norm(trace.z[k] - wbar[k][None, :], axis=1)
    return WbarSeries(wbar, dev)
