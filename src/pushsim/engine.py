"""Batched slot-loop executor for the push-based protocols.

One engine runs both the pure averaging protocol and the optimizer on top of
it. State lives in numpy arrays with a leading run axis (B runs advance
together); every operation is elementwise or a fixed-order per-run reduction,
so each run's trajectory is bit-identical whatever batch it executes in.

Within one slot the order is:

1. wake decisions (from the realized schedule);
2. messages whose arrival slot is now are merged into the per-arc
   "latest arrived" payload (receivers may still be asleep; the payload
   waits there);
3. waking nodes apply their value update (optimizer move or external
   perturbation), stamp the slot, and push: the outgoing share is credited
   to the running sent-mass counters and the local value shrinks to its own
   share;
4. sends scheduled to deliver are written into per-arc ring buffers keyed
   by arrival slot (delays are at most the transmission bound, so live
   messages never collide in the buffer);
5. waking nodes absorb their inbox: per in-arc, the latest arrived payload
   is applied only if its timestamp strictly exceeds the arc's receive
   timestamp, and the applied increment is the running-sum difference, so
   lost or superseded messages are recovered automatically;
6. waking nodes refresh their estimate z = x / y.

Messages consist of running sums, so keeping only the latest arrived payload
per arc is equivalent to keeping the whole inbox: any older unprocessed
message is dominated by the newest one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ProtocolViolationError
from .faultnet import (DEFAULT_CHUNK, FaultBounds, RealizerState,
                       ScheduleDraws, realize_chunk, validate_mask)
from .graph import Topology
from . import rng as rngmod


@dataclass
class Trace:
    """Full per-slot state for one run (trace index = slot boundary)."""

    x: np.ndarray        # (K+1, n, d)
    y: np.ndarray        # (K+1, n)
    z: np.ndarray        # (K+1, n, d)
    phi_x: np.ndarray    # (K+1, n, d)
    phi_y: np.ndarray    # (K+1, n)
    rho_x: np.ndarray    # (K+1, m, d)  indexed by canonical arc order
    rho_y: np.ndarray    # (K+1, m)
    kappa: np.ndarray    # (K+1, n)
    wake: np.ndarray     # (K, n)
    applied: np.ndarray  # (K, n, d) value deltas applied at wake


@dataclass
class RunResult:
    z_final: np.ndarray            # (B, n, d)
    e_dist: np.ndarray | None      # (B, K+1) squared error of node-mean z
    zbar: np.ndarray | None        # (B, K+1, d)
    aug_mean: np.ndarray | None    # (B, K+1, d) true mass mean per slot
    trace: Trace | None


def run_protocol(topology: Topology, bounds: FaultBounds, x0: np.ndarray,
                 horizon: int, master_seed: int, runs: tuple[int, ...] = (0,),
                 init_timestamp: int = 0,
                 objective=None, noise=None, ledger=None,
                 perturbation=None,
                 mask: np.ndarray | None = None,
                 z_star: np.ndarray | None = None,
                 record_trace: bool = False,
                 record_zbar: bool = False,
                 record_aug_mean: bool | None = None,
                 chunk: int = DEFAULT_CHUNK,
                 _corrupt_rho: tuple[int, int] | None = None) -> RunResult:
    """Advance B = len(runs) runs for `horizon` slots from shared x0."""
    n, m = topology.n, topology.m
    batch = len(runs)
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 2:
        x0 = np.broadcast_to(x0, (batch,) + x0.shape)
    if x0.shape[:2] != (batch, n):
        raise ConfigurationError(f"x0 shape {x0.shape} incompatible with "
                                 f"(runs={batch}, n={n})")
    dim = x0.shape[2]
    optimizing = objective is not None
    if optimizing and (noise is None or ledger is None):
        raise ConfigurationError("optimizer mode needs noise and ledger")
    if optimizing and perturbation is not None:
        raise ConfigurationError("perturbation and optimizer are exclusive")
    if (perturbation is not None or record_trace) and batch != 1:
        raise ConfigurationError("traces/perturbations require a single run")
    if ledger is not None and ledger.horizon < horizon:
        raise ConfigurationError("step-size ledger shorter than horizon")
    if mask is not None:
        validate_mask(topology, bounds, mask, horizon)
    if record_aug_mean is None:
        record_aug_mean = perturbation is not None

    src_idx, dst_idx = topology.src, topology.dst
    denom = (topology.out_degree() + 1).astype(float)
    if m:
        arc_order = np.lexsort((src_idx, dst_idx))
        sorted_dst = dst_idx[arc_order]
        group_nodes, group_starts = np.unique(sorted_dst, return_index=True)

    # Protocol state.
    x = x0.copy()
    y = np.ones((batch, n))
    z = x0.copy()
    phi_x = np.zeros((batch, n, dim))
    phi_y = np.zeros((batch, n))
    kappa = np.full((batch, n), init_timestamp, dtype=np.int64)
    rho_x = np.zeros((batch, m, dim))
    rho_y = np.zeros((batch, m))
    kappa_in = np.full((batch, m), init_timestamp, dtype=np.int64)
    # Latest arrived (but possibly unprocessed) payload per arc.
    arr_phi_x = np.zeros((batch, m, dim))
    arr_phi_y = np.zeros((batch, m))
    arr_kappa = np.full((batch, m), init_timestamp, dtype=np.int64)
    # In-flight ring buffers keyed by arrival slot modulo (L_del + 1).
    span = bounds.max_transmission_delay + 1
    buf_tag = np.full((batch, m, span), -1, dtype=np.int64)
    buf_kappa = np.zeros((batch, m, span), dtype=np.int64)
    buf_phi_x = np.zeros((batch, m, span, dim))
    buf_phi_y = np.zeros((batch, m, span))

    schedule_draws = [ScheduleDraws(master_seed, r, n, m) for r in runs]
    realizer = RealizerState.initial(batch, n, m)
    noise_gens = None
    if optimizing:
        noise_gens = [rngmod.stream(master_seed, r, rngmod.Role.GRAD_NOISE)
                      for r in runs]

    e_dist = np.empty((batch, horizon + 1)) if z_star is not None else None
    zbar_out = np.empty((batch, horizon + 1, dim)) if record_zbar else None
    aug_mean = np.empty((batch, horizon + 1, dim)) if record_aug_mean else None
    trace = None
    if record_trace:
        K = horizon
        trace = Trace(np.empty((K + 1, n, dim)), np.empty((K + 1, n)),
                      np.empty((K + 1, n, dim)), np.empty((K + 1, n, dim)),
                      np.empty((K + 1, n)), np.empty((K + 1, m, dim)),
                      np.empty((K + 1, m)), np.empty((K + 1, n),
                                                     dtype=np.int64),
                      np.empty((K, n), dtype=bool),
                      np.zeros((K, n, dim)))

    def snapshot(idx: int) -> None:
        if z_star is not None:
            diff = z.mean(axis=1) - z_star
            e_dist[:, idx] = np.sum(diff * diff, axis=1)
        if record_zbar:
            zbar_out[:, idx] = z.mean(axis=1)
        if trace is not None:
            trace.x[idx], trace.y[idx], trace.z[idx] = x[0], y[0], z[0]
            trace.phi_x[idx], trace.phi_y[idx] = phi_x[0], phi_y[0]
            trace.rho_x[idx], trace.rho_y[idx] = rho_x[0], rho_y[0]
            trace.kappa[idx] = kappa[0]

    snapshot(0)
    aug_sum = x0.sum(axis=1)  # (B, d): total mass over the whole system
    if record_aug_mean:
        aug_mean[:, 0] = aug_sum / n

    done = 0
    while done < horizon:
        steps = min(chunk, horizon - done)
        wake_us, loss_us, delay_us = [], [], []
        for d_ in schedule_draws:
            wu, lu, du = d_.draw_chunk(steps)
            wake_us.append(wu)
            loss_us.append(lu)
            delay_us.append(du)
        wake_c, arrival_c = realize_chunk(
            bounds, topology, realizer, done, horizon,
            np.stack(wake_us), np.stack(loss_us), np.stack(delay_us), mask)
        if optimizing:
            noise_c = np.stack([g.random((steps, n, dim))
                                for g in noise_gens])
        for c in range(steps):
            k = done + c
            wake = wake_c[:, c, :]                      # (B, n) bool
            wake_col = wake[:, :, None]

            if m:
                cell = k % span
                tag_now = buf_tag[:, :, cell] == k      # (B, m)
                if tag_now.any():
                    arr_kappa = np.where(tag_now, buf_kappa[:, :, cell],
                                         arr_kappa)
                    arr_phi_x = np.where(tag_now[:, :, None],
                                         buf_phi_x[:, :, cell, :], arr_phi_x)
                    arr_phi_y = np.where(tag_now, buf_phi_y[:, :, cell],
                                         arr_phi_y)
                    buf_tag[:, :, cell] = np.where(tag_now, -1,
                                                   buf_tag[:, :, cell])

            if optimizing:
                eps = noise.from_uniforms(noise_c[:, c])
                ghat = objective.batch_local_gradients(z) + eps
                bad = wake & ~np.all(np.isfinite(ghat), axis=2)
                if bad.any():
                    b_i, n_i = np.argwhere(bad)[0]
                    raise ProtocolViolationError(
                        f"non-finite gradient at node {n_i} slot {k} "
                        f"(run index {runs[b_i]})",
                        run=int(runs[b_i]), slot=k, node=int(n_i))
                beta = ledger.compensated_step_batch(kappa, k)  # (B, n)
                delta = -beta[:, :, None] * ghat
                x = np.where(wake_col, x + delta, x)
                applied = np.where(wake_col, delta, 0.0)
                aug_sum = aug_sum + applied.sum(axis=1)
                if trace is not None:
                    trace.applied[k] = applied[0]
            elif perturbation is not None:
                delta = perturbation(k)
                if delta is not None:
                    delta = np.asarray(delta, dtype=float)
                    applied = np.where(wake_col, delta[None], 0.0)
                    x = x + applied
                    aug_sum = aug_sum + applied.sum(axis=1)
                    if trace is not None:
                        trace.applied[k] = applied[0]

            kappa = np.where(wake, k, kappa)
            share_x = x / denom[None, :, None]
            share_y = y / denom[None, :]
            phi_x = np.where(wake_col, phi_x + share_x, phi_x)
            phi_y = np.where(wake, phi_y + share_y, phi_y)
            x = np.where(wake_col, share_x, x)
            y = np.where(wake, share_y, y)

            if m:
                arrival = arrival_c[:, c, :]            # (B, m)
                delivered = arrival >= 0
                if delivered.any():
                    b_i, a_i = np.nonzero(delivered)
                    cells = arrival[b_i, a_i] % span
                    buf_tag[b_i, a_i, cells] = arrival[b_i, a_i]
                    buf_kappa[b_i, a_i, cells] = k
                    buf_phi_x[b_i, a_i, cells, :] = phi_x[b_i, src_idx[a_i], :]
                    buf_phi_y[b_i, a_i, cells] = phi_y[b_i, src_idx[a_i]]

                accept = wake[:, dst_idx] & (arr_kappa > kappa_in)
                if _corrupt_rho is not None and _corrupt_rho[1] == k:
                    rho_mask = accept.copy()
                    rho_mask[:, _corrupt_rho[0]] = False
                else:
                    rho_mask = accept
                if accept.any():
                    inc_x = np.where(accept[:, :, None], arr_phi_x - rho_x,
                                     0.0)
                    inc_y = np.where(accept, arr_phi_y - rho_y, 0.0)
                    x_sums = np.add.reduceat(inc_x[:, arc_order, :],
                                             group_starts, axis=1)
                    y_sums = np.add.reduceat(inc_y[:, arc_order],
                                             group_starts, axis=1)
                    x[:, group_nodes, :] += x_sums
                    y[:, group_nodes] += y_sums
                    rho_x = np.where(rho_mask[:, :, None], arr_phi_x, rho_x)
                    rho_y = np.where(rho_mask, arr_phi_y, rho_y)
                    kappa_in = np.where(accept, arr_kappa, kappa_in)

            if not np.all(y > 0.0):
                b_i, n_i = np.argwhere(y <= 0.0)[0]
                raise ProtocolViolationError(
                    f"non-positive push-sum weight at node {n_i} slot {k} "
                    f"(run index {runs[b_i]})",
                    run=int(runs[b_i]), slot=k, node=int(n_i))
            z = np.where(wake_col, x / y[:, :, None], z)

            if trace is not None:
                trace.wake[k] = wake[0]
            snapshot(k + 1)
            if record_aug_mean:
                aug_mean[:, k + 1] = aug_sum / n
        done += steps

    return RunResult(z_final=z, e_dist=e_dist, zbar=zbar_out,
                     aug_mean=aug_mean, trace=trace)
