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
single-run, exists to pin down the semantics, and records its run as an
``engine.Trace``, so the test suite compares the two field by field. Keep
the two in sync by changing this one first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine as _engine
from .errors import ProtocolViolationError
from .faultnet import FaultBounds, realize_schedule
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
    message. kappa is the node's own last wake slot. Every timestamp starts
    at -1, "no wake, no message yet".
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


def init_node(x0: np.ndarray, in_arcs: list[int]) -> PushSumNodeState:
    x0 = np.asarray(x0, dtype=float)
    return PushSumNodeState(
        x=x0.copy(), y=1.0, z=x0.copy(),
        phi_x=np.zeros_like(x0), phi_y=0.0, kappa=-1,
        rho_x={a: np.zeros_like(x0) for a in in_arcs},
        rho_y={a: 0.0 for a in in_arcs},
        kappa_in={a: -1 for a in in_arcs})


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


def reference_averaging_run(topology: Topology, bounds: FaultBounds,
                            x0: np.ndarray, horizon: int, master_seed: int,
                            run: int = 0, perturbation=None,
                            mask: np.ndarray | None = None) -> _engine.Trace:
    """Message-level simulation of one run (the test oracle), recorded as an
    ``engine.Trace`` with the schedule it realized.

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
    nodes = [init_node(x0[i], in_arcs[i]) for i in range(n)]
    out_deg = topology.out_degree()
    channel = Channel()

    out = _engine.Trace.allocate(schedule, dim)

    def snapshot(idx: int) -> None:
        # x/y, phi_x/phi_y and rho_x/rho_y are views; z and kappa derived
        for i, st in enumerate(nodes):
            out.x[idx, i], out.y[idx, i] = st.x, st.y
            out.phi_x[idx, i], out.phi_y[idx, i] = st.phi_x, st.phi_y
        for a, (_, dst) in enumerate(topology.arcs):
            out.rho_x[idx, a] = nodes[dst].rho_x[a]
            out.rho_y[idx, a] = nodes[dst].rho_y[a]

    snapshot(0)
    for k in range(horizon):
        waking = set(int(i) for i in np.flatnonzero(schedule.wake[k]))
        delta = perturbation(k) if perturbation is not None else None
        if delta is not None:
            delta = np.asarray(delta, dtype=float)
        payloads = {}
        for i in waking:
            if delta is not None:
                nodes[i].x = nodes[i].x + delta[i]
                out.applied[k, i] = delta[i]
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
        snapshot(k + 1)
    return out


# ---------------------------------------------------------------------------
# Perturbed averaging on the batched engine, and trace output.

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
