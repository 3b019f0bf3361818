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
from functools import cached_property

import mpmath
import numpy as np
import scipy.sparse as sp

from .errors import (ConfigurationError, InconsistentScheduleError,
                     VerificationError)
from .faultnet import ScheduleRealization, classify_deliveries
from .graph import Topology, arc_label

CONTRACTION_DPS = 80
STRUCTURE_CHUNK = 64   # slot matrices per batch of the structure checks


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
    K = schedule.horizon
    topo, bounds = schedule.topology, schedule.bounds
    l_d = bounds.max_effective_delay
    tau = np.zeros((K, topo.m, l_d), dtype=bool)
    for a, deliveries in enumerate(classify_deliveries(schedule,
                                                       init_timestamp)):
        for send, proc in zip(deliveries.send_slots,
                              deliveries.processing_slots):
            tau[send, a, (proc - send) - 1] = True
    return DeliveryIndicators(schedule.wake[:K].copy(), tau)


# ---------------------------------------------------------------------------
# Augmented system and per-slot matrices.

@dataclass(frozen=True)
class _MatrixTemplate:
    """Slot-independent parts of a layout's mass-flow matrices.

    Real-column entries are ordered by a sort key column * size + row, which
    is their canonical CSC position. A sleeping node's column holds only its
    diagonal; a waking node's column holds the diagonal and one entry per
    out-arc. Transit and excess columns hold exactly one entry each.
    """

    share: np.ndarray         # (n,) 1 / (out-degree + 1)
    excess_rows: np.ndarray   # (m,) excess row of each arc
    level_shift: np.ndarray   # (L_d,) [l - 1]: excess row -> level-l row
    arc_keys: np.ndarray      # (m,) key of each arc's entry if it is excess
    diag_keys: np.ndarray     # (n,) key of each diagonal entry
    column_ends: np.ndarray   # (n,) first key past each real column
    unit_ptr: np.ndarray      # (L_d*m + m,) indptr offsets of unit columns
    transit_rows: np.ndarray  # (L_d*m,) fixed row of each transit column
    index_dtype: type


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

    @cached_property
    def _template(self) -> _MatrixTemplate:
        topo = self.topology
        n, m, l_d, size = topo.n, topo.m, self.max_effective_delay, self.size
        excess_rows = n + l_d * m + np.arange(m)
        # level 1 pours into the destination, upper levels slide down
        transit_rows = np.concatenate((topo.dst, n + np.arange((l_d - 1) * m)))
        nodes = np.arange(n)
        return _MatrixTemplate(
            share=1.0 / (topo.out_degree() + 1.0),
            excess_rows=excess_rows,
            level_shift=(np.arange(l_d) - l_d) * m,
            arc_keys=topo.src * size + excess_rows,
            diag_keys=nodes * (size + 1),
            column_ends=(nodes + 1) * size,
            unit_ptr=np.arange(1, (l_d + 1) * m + 1),
            transit_rows=transit_rows,
            # the index dtype scipy picks for this shape, so the constructor
            # takes the index arrays without scanning them
            index_dtype=sp.get_index_dtype(maxval=size))


def build_mass_matrix(layout: AugmentedLayout, wake_k: np.ndarray,
                      tau_k: np.ndarray) -> sp.csc_matrix:
    """One slot's column-stochastic mass-flow matrix.

    wake_k is (n,) bool; tau_k is (m, L_d) bool with at most one level set
    per arc (two set levels violate the single-delivery structure and raise).

    A waking node keeps one share and sends one per out-arc: into the arc's
    accepted transit level, or into its excess. A sleeping node keeps all
    its mass. Transit mass slides one level down per slot (level 1 pours
    into the destination); the excess rides into the accepted level or
    stays put.
    """
    topo = layout.topology
    m, l_d, size = topo.m, layout.max_effective_delay, layout.size
    if tau_k.shape != (m, l_d):
        raise ConfigurationError(f"tau slice shape {tau_k.shape} != "
                                 f"({m}, {l_d})")
    t = layout._template
    # each arc's outflow row: its accepted transit level, else its excess;
    # the shift is nonzero exactly when a level is set, so a second level
    # on one arc shows up as more set levels than shifted arcs
    shift = tau_k @ t.level_shift
    if np.count_nonzero(tau_k) > np.count_nonzero(shift):
        a = int(np.argmax(tau_k.sum(axis=1) > 1))
        raise InconsistentScheduleError(
            f"arc {arc_label(int(topo.src[a]), int(topo.dst[a]))}: "
            "two delivery levels in one slot")
    dest = t.excess_rows + shift

    # real columns: the diagonal, plus the out-arc entries of waking nodes
    wake_k = np.asarray(wake_k, dtype=bool)
    keys = np.sort(np.concatenate((t.diag_keys,
                                   (t.arc_keys + shift)[wake_k[topo.src]])))
    col = keys // size
    idx = t.index_dtype
    indptr = np.concatenate(([0], np.searchsorted(keys, t.column_ends),
                             keys.size + t.unit_ptr)).astype(idx)
    # unit columns: transit slides down; the excess rides into the accepted
    # level or stays put, i.e. into the arc's outflow row
    indices = np.concatenate((keys - col * size, t.transit_rows,
                              dest)).astype(idx)
    data = np.concatenate((np.where(wake_k, t.share, 1.0)[col],
                           np.ones((l_d + 1) * m)))
    return sp.csc_matrix((data, indices, indptr), shape=(size, size))


def step_augmented(matrix: sp.csc_matrix, chi: np.ndarray,
                   psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Advance one slot: both the mass vectors and the weight vector."""
    stacked = np.hstack([chi, psi[:, None]])
    out = matrix @ stacked
    return np.ascontiguousarray(out[:, :-1]), np.ascontiguousarray(out[:, -1])


@dataclass
class AuditTrace:
    """Augmented-state trajectory computed independently of the simulator."""

    layout: AugmentedLayout
    indicators: DeliveryIndicators
    chi: np.ndarray    # (K+1, size, d)
    psi: np.ndarray    # (K+1, size)
    matrices: list     # K csc matrices


def run_linear_audit(schedule: ScheduleRealization, x0: np.ndarray,
                     init_timestamp: int,
                     applied: np.ndarray | None = None) -> AuditTrace:
    """Evolve the augmented system along one realized schedule.

    applied, if given, is the (K, n, d) array of value injections actually
    applied by the simulator at wake slots (perturbations or optimizer
    moves); they are added to real coordinates before each slot's flow.
    """
    topo, bounds = schedule.topology, schedule.bounds
    K = schedule.horizon
    x0 = np.asarray(x0, dtype=float)
    n, dim = x0.shape
    layout = AugmentedLayout(topo, bounds.max_effective_delay)
    ind = build_delivery_indicators(schedule, init_timestamp)
    size = layout.size
    chi = np.zeros((K + 1, size, dim))
    psi = np.zeros((K + 1, size))
    chi[0, :n] = x0
    psi[0, :n] = 1.0
    mats = []
    for k in range(K):
        mat = build_mass_matrix(layout, ind.wake[k], ind.tau[k])
        mats.append(mat)
        cur = chi[k].copy()
        if applied is not None:
            cur[:n] += applied[k]
        chi[k + 1], psi[k + 1] = step_augmented(mat, cur, psi[k])
    return AuditTrace(layout, ind, chi, psi, mats)


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


def _matrix_structure_checks(matrices: list, n: int,
                             entry_floor: float) -> list[IdentityCheck]:
    """Column sums equal to one, nonzero entries at or above the floor, and
    positive real diagonals, batched over STRUCTURE_CHUNK slot matrices."""
    per_slot = np.hstack([np.zeros((3, 0))] + [
        _structure_residuals(matrices[i:i + STRUCTURE_CHUNK], n, entry_floor)
        for i in range(0, len(matrices), STRUCTURE_CHUNK)])
    checks = []
    for name, res, tol in zip(("matrix-column-sums", "matrix-entry-floor",
                               "matrix-real-diagonal-positive"),
                              per_slot, (1e-15, 1e-15, 0.0)):
        bad = np.flatnonzero(res > tol)
        checks.append(IdentityCheck(name, float(res.max(initial=0.0)),
                                    int(bad[0]) if bad.size else None))
    return checks


def _structure_residuals(matrices: list, n: int,
                         entry_floor: float) -> np.ndarray:
    """(3, K) per-slot residuals: column-sum error, entry-floor shortfall,
    and 1.0 where a real diagonal is not positive.

    The CSC matrices' stored entries are concatenated; column sums are
    add.reduceat over each non-empty column's entries, as scipy computes
    them, so every residual equals the per-matrix scipy result bit for bit.
    """
    K, size = len(matrices), matrices[0].shape[1]
    nnz = np.array([mat.nnz for mat in matrices])
    offsets = np.concatenate(([0], np.cumsum(nnz)))
    data = np.concatenate([mat.data for mat in matrices])
    indices = np.concatenate([mat.indices for mat in matrices])
    col_ptr = np.concatenate([mat.indptr[:-1] + off for mat, off
                              in zip(matrices, offsets)] + [offsets[-1:]])
    counts = np.diff(col_ptr)                          # (K * size,)
    slot = np.repeat(np.arange(K), nnz)
    col = np.repeat(np.tile(np.arange(size), K), counts)

    out = np.zeros((3, K))
    sums = np.zeros(K * size)                          # empty columns sum to 0
    filled = counts > 0
    sums[filled] = np.add.reduceat(data, col_ptr[:-1][filled])
    out[0] = np.abs(sums - 1.0).reshape(K, size).max(axis=1)
    np.maximum.at(out[1], slot,
                  np.where(data != 0.0, entry_floor - data, 0.0))
    on_diag = (indices == col) & (col < n)
    diag = np.zeros((K, n))
    np.add.at(diag, (slot[on_diag], col[on_diag]), data[on_diag])
    out[2] = np.any(diag <= 0.0, axis=1)
    return out


def _exclusion_windows(ind: DeliveryIndicators) -> tuple[float, int | None]:
    """No two accepted sends on one arc may share a processing slot, and
    processing order must follow send order. Returns (violations, slot)."""
    K, m, l_d = ind.tau.shape
    bad = None
    count = 0
    for a in range(m):
        sends, levels = np.nonzero(ind.tau[:, a, :])
        proc = sends + levels + 1
        if np.any(np.diff(proc) <= 0):
            i = int(np.flatnonzero(np.diff(proc) <= 0)[0])
            count += 1
            bad = int(sends[i + 1]) if bad is None else min(bad,
                                                            int(sends[i + 1]))
    return float(count), bad


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
    K = len(audit.matrices)
    if K < window:
        raise ConfigurationError(
            f"audit span {K} shorter than one window ({window})")
    dense = [m.toarray() for m in audit.matrices]
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
               update=None, mask: np.ndarray | None = None,
               check_windows: bool = False) -> AuditReport:
    """Simulate one run, rebuild it as the augmented linear system, and
    return the identity report (raising on any failure).

    update is the run's wake-time update (``engine.run_protocol``), such as
    ``pushsum.Injection`` or ``optimizer.GradientStep`` built for this run;
    the moves it applies enter the rebuild as injections.
    """
    from .engine import run_protocol
    from .faultnet import realize_schedule

    x0 = np.asarray(x0, dtype=float)
    result = run_protocol(topology, bounds, x0, horizon, master_seed,
                          runs=(run,), init_timestamp=init_timestamp,
                          update=update, mask=mask, record_trace=True)
    trace = result.trace
    schedule = realize_schedule(topology, bounds, horizon, master_seed,
                                run, mask=mask)
    applied = trace.applied if update is not None else None
    audit = run_linear_audit(schedule, x0, init_timestamp, applied=applied)
    report = cross_validate(trace, audit, x0, applied=applied)
    if check_windows:
        ok, start = window_positivity_check(audit, bounds.max_receipt_gap)
        report.checks.append(IdentityCheck(
            "window-product-positivity", 0.0 if ok else 1.0,
            None if ok else start))
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
