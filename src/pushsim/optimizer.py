"""Sleep-compensated stochastic gradient-push.

An optimizing node behaves like an averaging node except that, on wake, it
first moves its value by the accumulated step sizes of every slot it slept
through (its *compensated* step) times a noisy local gradient evaluated at
its current estimate; then it pushes as usual. Timestamps start at -1 in
this mode so a slot-0 broadcast is accepted.
"""

from __future__ import annotations

import numpy as np

from . import engine as _engine
from . import rng
from .errors import ConfigurationError, ProtocolViolationError
from .faultnet import FaultBounds
from .graph import Topology
from .objectives import NoiseModel

OPTIMIZER_INIT_TIMESTAMP = -1


class StepSizeLedger:
    """Diminishing steps alpha(k) = numerator / (mu * (k + k0)), alpha(0) = 0.

    Partial sums over sleep windows come from one prefix-sum table, so
    window sums telescope bit-exactly: consecutive compensated steps add up
    to exactly the prefix difference over the union window, and no step-size
    mass is dropped or double-counted across sleeps.
    """

    def __init__(self, numerator: float, mu: float, horizon: int,
                 k0: int = 0):
        if numerator <= 0 or mu <= 0:
            raise ConfigurationError("step numerator and mu must be positive")
        if k0 < 0:
            raise ConfigurationError("k0 must be >= 0")
        self.numerator = float(numerator)
        self.mu = float(mu)
        self.k0 = int(k0)
        self.horizon = int(horizon)
        ks = np.arange(1, horizon + 1, dtype=float)
        alphas = np.concatenate(
            [[0.0], self.numerator / (self.mu * (ks + self.k0))])
        # prefix[j] = sum of alpha(t) for t < j; prefix[0] = 0
        self.prefix = np.concatenate([[0.0], np.cumsum(alphas)])

    def compensated_step(self, last_wake: int, k: int) -> float:
        """Sum of alpha(t) for t in (last_wake, k]; last_wake may be -1."""
        return float(self.prefix[k + 1] - self.prefix[last_wake + 1])

    def compensated_step_batch(self, last_wake: np.ndarray,
                               k: int | np.ndarray) -> np.ndarray:
        """compensated_step elementwise; k broadcasts against last_wake, so
        one call covers many slots."""
        return self.prefix[k + 1] - self.prefix[last_wake + 1]


class GradientStep:
    """The optimizer's wake-time update for ``engine.run_protocol``.

    A waking node moves its value by minus its compensated step times a
    noisy local gradient at its current estimate. Per chunk, one ledger call
    gives every compensated step and one noise-map call every gradient
    noise; the uniforms come from each run's GRAD_NOISE stream.
    """

    def __init__(self, objective, noise: NoiseModel,
                 ledger: StepSizeLedger, master_seed: int, runs):
        self.objective, self.noise, self.ledger = objective, noise, ledger
        self.runs = tuple(runs)
        self.streams = [rng.stream(master_seed, r, rng.Role.GRAD_NOISE)
                        for r in self.runs]

    def chunk(self, kappa_before: np.ndarray, slots: np.ndarray) -> None:
        beta = self.ledger.compensated_step_batch(kappa_before,
                                                  slots[None, :, None])
        dim = self.objective.dim
        self.neg_beta = _engine._per_slot(-beta, dim)     # (C, B, n, d)
        shape = (slots.size, kappa_before.shape[2], dim)
        self.eps = self.noise.from_uniforms(
            np.stack([g.random(shape) for g in self.streams]))

    def delta(self, c: int, k: int, z: np.ndarray,
              wake: np.ndarray) -> np.ndarray:
        ghat = self.objective.batch_local_gradients(z) + self.eps[:, c]
        finite = np.isfinite(ghat)
        if not finite.all():
            bad = wake & ~np.all(finite, axis=2)
            if bad.any():
                b_i, n_i = np.argwhere(bad)[0]
                run = int(self.runs[b_i])
                raise ProtocolViolationError(
                    f"non-finite gradient at node {n_i} slot {k} "
                    f"(run index {run})", run=run, slot=k, node=int(n_i))
        return self.neg_beta[c] * ghat


def run_gradient_push(topology: Topology, bounds: FaultBounds,
                      objective, noise: NoiseModel,
                      ledger: StepSizeLedger, horizon: int,
                      master_seed: int, runs=(0,),
                      x0: np.ndarray | None = None,
                      z_star: np.ndarray | None = None,
                      record_trace: bool = False,
                      mask: np.ndarray | None = None,
                      chunk: int = _engine.DEFAULT_CHUNK
                      ) -> _engine.RunResult:
    """Batched optimizer runs. x0 defaults to all-ones (shared start)."""
    if ledger.horizon < horizon:
        raise ConfigurationError("step-size ledger shorter than horizon")
    if x0 is None:
        x0 = np.ones((topology.n, objective.dim))
    runs = tuple(runs)
    return _engine.run_protocol(
        topology, bounds, x0, horizon, master_seed, runs=runs,
        init_timestamp=OPTIMIZER_INIT_TIMESTAMP,
        update=GradientStep(objective, noise, ledger, master_seed, runs),
        z_star=z_star, record_trace=record_trace, mask=mask, chunk=chunk)
