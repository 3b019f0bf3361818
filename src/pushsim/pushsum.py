"""Ratio-consensus averaging over faulty links, plus a reference simulator.

Each node keeps a value/weight pair (x, y) and reports the ratio z = x / y.
Communication is cumulative: a node never sends increments, it sends the
running totals of everything it has pushed on the arc so far, stamped with
its wake counter. The receiver differences the running total against what it
has already absorbed, so any prefix of lost or stale messages is recovered
by the next one that gets through.

Two implementations live in this package. The batched engine
(pushsim.engine) is the production path. This module adds an intentionally
plain object-per-node simulator with explicit message queues; it is slow and
single-run, exists to pin down the semantics, and is compared against the
engine in the test suite. Keep the two in sync by changing this one first.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import engine as _engine
from .errors import ProtocolViolationError
from .faultnet import DEFAULT_CHUNK, FaultBounds, realize_schedule
from .graph import Topology


@dataclass
class InFlightMessage:
    arc: int
    src: int
    dst: int
    send_slot: int
    arrival_slot: int
    timestamp: int
    phi_x: np.ndarray
    phi_y: float


class Channel:
    """The reference simulator's in-flight and queued messages.

    A message becomes deliverable at its arrival slot but is only handed
    over once its destination wakes; until then it stays queued.
    """

    def __init__(self):
        self._pending: list[InFlightMessage] = []

    def send(self, msg: InFlightMessage) -> None:
        self._pending.append(msg)

    def deliver(self, slot: int, waking: set[int]
                ) -> dict[int, list[InFlightMessage]]:
        """Pop messages with arrival <= slot whose destination wakes now."""
        out: dict[int, list[InFlightMessage]] = {}
        keep = []
        for msg in self._pending:
            if msg.arrival_slot <= slot and msg.dst in waking:
                out.setdefault(msg.dst, []).append(msg)
            else:
                keep.append(msg)
        self._pending = keep
        for msgs in out.values():
            msgs.sort(key=lambda m: (m.arrival_slot, m.send_slot))
        return out


@dataclass
class PushSumNodeState:
    """One node's protocol variables.

    rho_x / rho_y / kappa_in are keyed by in-arc id: the running totals
    already absorbed from that arc and the timestamp of the newest absorbed
    message. kappa is the node's own last wake slot.
    """

    x: np.ndarray
    y: float
    z: np.ndarray
    phi_x: np.ndarray
    phi_y: float
    kappa: int
    rho_x: dict[int, np.ndarray]
    rho_y: dict[int, float]
    kappa_in: dict[int, int]


def init_node(x0: np.ndarray, in_arcs: list[int],
              init_timestamp: int) -> PushSumNodeState:
    x0 = np.asarray(x0, dtype=float)
    return PushSumNodeState(
        x=x0.copy(), y=1.0, z=x0.copy(),
        phi_x=np.zeros_like(x0), phi_y=0.0, kappa=init_timestamp,
        rho_x={a: np.zeros_like(x0) for a in in_arcs},
        rho_y={a: 0.0 for a in in_arcs},
        kappa_in={a: init_timestamp for a in in_arcs})


def wake_and_push(state: PushSumNodeState, out_degree: int,
                  slot: int) -> tuple[np.ndarray, float]:
    """Stamp the wake, keep one share of (x, y), credit the rest as sent.

    Returns the post-push running totals (phi_x, phi_y); these are what a
    send on any out-arc carries this slot.
    """
    state.kappa = slot
    share_x = state.x / (out_degree + 1)
    share_y = state.y / (out_degree + 1)
    state.phi_x = state.phi_x + share_x
    state.phi_y = state.phi_y + share_y
    state.x = share_x
    state.y = share_y
    return state.phi_x.copy(), state.phi_y


def process_inbox(state: PushSumNodeState,
                  messages: list[InFlightMessage], slot: int) -> None:
    """Absorb the newest message per in-arc, stale ones discarded.

    Increments are accumulated left to right over in-arcs in arc-id order
    and applied as a single addition (the batched engine adds in the same
    order, so the two stay bit-identical, not just close).
    """
    by_arc: dict[int, InFlightMessage] = {}
    for msg in messages:
        cur = by_arc.get(msg.arc)
        if cur is None or msg.timestamp > cur.timestamp:
            by_arc[msg.arc] = msg
    inc_x = None
    inc_y = 0.0
    for arc in sorted(by_arc):
        msg = by_arc[arc]
        if msg.timestamp <= state.kappa_in[arc]:
            continue
        dx = msg.phi_x - state.rho_x[arc]
        dy = msg.phi_y - state.rho_y[arc]
        state.rho_x[arc] = msg.phi_x.copy()
        state.rho_y[arc] = msg.phi_y
        state.kappa_in[arc] = msg.timestamp
        inc_x = dx if inc_x is None else inc_x + dx
        inc_y = inc_y + dy
    if inc_x is not None:
        state.x = state.x + inc_x
        state.y = state.y + inc_y
    if state.y <= 0.0:
        raise ProtocolViolationError(
            f"non-positive push-sum weight at slot {slot}")
    state.z = state.x / state.y


@dataclass
class ReferenceRun:
    """Slot-boundary trajectories from the object-per-node simulator."""

    x: np.ndarray        # (K+1, n, d)
    y: np.ndarray        # (K+1, n)
    z: np.ndarray        # (K+1, n, d)
    phi_x: np.ndarray    # (K+1, n, d)
    phi_y: np.ndarray    # (K+1, n)
    rho_x: np.ndarray    # (K+1, m, d)
    rho_y: np.ndarray    # (K+1, m)
    kappa: np.ndarray    # (K+1, n)
    wake: np.ndarray     # (K, n)
    applied: np.ndarray  # (K, n, d)
    aug_mean: np.ndarray  # (K+1, d)


def reference_averaging_run(topology: Topology, bounds: FaultBounds,
                            x0: np.ndarray, horizon: int, master_seed: int,
                            run: int = 0, init_timestamp: int = 0,
                            perturbation=None,
                            mask: np.ndarray | None = None) -> ReferenceRun:
    """Message-level simulation of one run (the test oracle).

    Consumes the same randomness as the engine (the realized schedule is a
    pure function of seed/run/topology/bounds), but executes with per-node
    objects and explicit queues instead of batched arrays.
    """
    n, m = topology.n, topology.m
    x0 = np.asarray(x0, dtype=float)
    dim = x0.shape[1]
    schedule = realize_schedule(topology, bounds, horizon, master_seed,
                                run=run, mask=mask)
    in_arcs = [[] for _ in range(n)]
    for a, (_, dst) in enumerate(topology.arcs):
        in_arcs[dst].append(a)
    nodes = [init_node(x0[i], in_arcs[i], init_timestamp) for i in range(n)]
    out_deg = topology.out_degree()
    channel = Channel()

    K = horizon
    out = ReferenceRun(
        np.empty((K + 1, n, dim)), np.empty((K + 1, n)),
        np.empty((K + 1, n, dim)), np.empty((K + 1, n, dim)),
        np.empty((K + 1, n)), np.empty((K + 1, m, dim)),
        np.empty((K + 1, m)), np.empty((K + 1, n), dtype=np.int64),
        np.empty((K, n), dtype=bool), np.zeros((K, n, dim)),
        np.empty((K + 1, dim)))

    def snapshot(idx: int, aug_sum: np.ndarray) -> None:
        for i, st in enumerate(nodes):
            out.x[idx, i] = st.x
            out.y[idx, i] = st.y
            out.z[idx, i] = st.z
            out.phi_x[idx, i] = st.phi_x
            out.phi_y[idx, i] = st.phi_y
            out.kappa[idx, i] = st.kappa
        for a, (_, dst) in enumerate(topology.arcs):
            out.rho_x[idx, a] = nodes[dst].rho_x[a]
            out.rho_y[idx, a] = nodes[dst].rho_y[a]
        out.aug_mean[idx] = aug_sum / n

    aug_sum = x0.sum(axis=0)
    snapshot(0, aug_sum)

    for k in range(horizon):
        waking = set(int(i) for i in np.flatnonzero(schedule.wake[k]))
        out.wake[k] = schedule.wake[k]
        delta = perturbation(k) if perturbation is not None else None
        if delta is not None:
            delta = np.asarray(delta, dtype=float)
        payloads = {}
        for i in waking:
            if delta is not None:
                nodes[i].x = nodes[i].x + delta[i]
                out.applied[k, i] = delta[i]
                aug_sum = aug_sum + delta[i]
            payloads[i] = wake_and_push(nodes[i], int(out_deg[i]), k)
        for a in range(m):
            arrival = schedule.arrival[k, a]
            if arrival < 0:
                continue
            src, dst = topology.arcs[a]
            phi_x, phi_y = payloads[src]
            channel.send(InFlightMessage(a, src, dst, k, int(arrival), k,
                                         phi_x, phi_y))
        inboxes = channel.deliver(k, waking)
        for i in waking:
            process_inbox(nodes[i], inboxes.get(i, []), k)
        snapshot(k + 1, aug_sum)
    return out


# ---------------------------------------------------------------------------
# Entry points on the batched engine.

class Injection:
    """Wake-time update for ``engine.run_protocol`` that adds
    ``perturbation(k)``, an (n, d) array or None, to waking nodes' values.

    ``run_protocol(..., runs=(run,), update=Injection(p), record_trace=True)``
    is perturbed averaging: the trace's aug_mean is the running mean of x0
    and all injected mass, which the estimates track."""

    def __init__(self, perturbation):
        self.perturbation = perturbation

    def chunk(self, kappa_before: np.ndarray, slots: np.ndarray) -> None:
        pass

    def delta(self, c: int, k: int, z: np.ndarray,
              wake: np.ndarray) -> np.ndarray | None:
        delta = self.perturbation(k)
        return None if delta is None else np.asarray(delta, dtype=float)


def run_averaging(topology: Topology, bounds: FaultBounds, x0: np.ndarray,
                  horizon: int, master_seed: int, runs=(0,),
                  z_star: np.ndarray | None = None,
                  record_trace: bool = False,
                  mask: np.ndarray | None = None,
                  chunk: int = DEFAULT_CHUNK) -> _engine.RunResult:
    """Plain ratio-consensus averaging; converges to the mean of x0 rows."""
    return _engine.run_protocol(
        topology, bounds, np.asarray(x0, dtype=float), horizon, master_seed,
        runs=tuple(runs), init_timestamp=0, z_star=z_star,
        record_trace=record_trace, mask=mask, chunk=chunk)


def dump_state_trace(trace, path: str | Path) -> None:
    """Wide CSV of a recorded trace: one row per (slot, node).

    Columns: slot, node, kappa, y, phi_y, then x/z/phi_x coordinates.
    Floats are rendered with 17 significant digits (round-trip exact).
    """
    K1, n, dim = trace.x.shape
    header = ["slot", "node", "kappa", "y", "phi_y"]
    header += [f"x{c}" for c in range(dim)]
    header += [f"z{c}" for c in range(dim)]
    header += [f"phi_x{c}" for c in range(dim)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k in range(K1):
            for i in range(n):
                row = [k, i, int(trace.kappa[k, i]),
                       format(trace.y[k, i], ".17g"),
                       format(trace.phi_y[k, i], ".17g")]
                row += [format(v, ".17g") for v in trace.x[k, i]]
                row += [format(v, ".17g") for v in trace.z[k, i]]
                row += [format(v, ".17g") for v in trace.phi_x[k, i]]
                w.writerow(row)
