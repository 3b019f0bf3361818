"""Sleep-compensated stochastic gradient-push.

An optimizing node behaves like an averaging node except that, on wake, it
first moves its value by the accumulated step sizes of every slot it slept
through (its *compensated* step) times a noisy local gradient evaluated at
its current estimate; then it pushes as usual.
"""

from __future__ import annotations

import numpy as np

from . import engine as _engine
from . import rng
from .errors import ConfigurationError, ProtocolViolationError
from .faultnet import FaultBounds
from .graph import Topology
from .objectives import NoiseModel


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
        # rotated left by one: ahead[j] = prefix[j + 1], and ahead[-1] =
        # prefix[0], the prefix before a last wake of -1
        self.ahead = np.roll(self.prefix, -1)

    def compensated_step(self, last_wake: int, k: int) -> float:
        """Sum of alpha(t) for t in (last_wake, k]; last_wake may be -1."""
        return float(self.prefix[k + 1] - self.prefix[last_wake + 1])

    def compensated_step_batch(self, last_wake: np.ndarray,
                               k: int | np.ndarray,
                               out: np.ndarray | None = None) -> np.ndarray:
        """compensated_step elementwise, into `out` if given; k broadcasts
        against last_wake, so one call covers many slots.

        The prefixes are gathered straight into `out`: last wakes lie in
        [-1, horizon), and -1 wraps to prefix[0]."""
        out = np.take(self.ahead, last_wake, out=out, mode="wrap")
        return np.subtract(self.ahead[k], out, out=out)


class GradientStep:
    """The optimizer's wake-time update for ``engine.run_protocol``.

    A waking node moves its value by minus its compensated step times a
    noisy local gradient at its current estimate. Per chunk, one ledger call
    gives every compensated step and one noise-map call every gradient
    noise; the uniforms come from each run's GRAD_NOISE stream. Both fill
    tables sized by the first chunk, the longest, and refilled by the rest.
    """

    def __init__(self, objective, noise: NoiseModel,
                 ledger: StepSizeLedger, master_seed: int, runs):
        self.objective, self.noise, self.ledger = objective, noise, ledger
        self.runs = tuple(runs)
        self.streams = [rng.stream(master_seed, r, rng.Role.GRAD_NOISE)
                        for r in self.runs]
        self._neg_beta = self._eps = None

    def chunk(self, kappa_before: np.ndarray, slots: np.ndarray) -> None:
        batch, steps, n = kappa_before.shape
        if self._eps is None or self._eps.shape[1] < steps:
            self._neg_beta = np.empty((steps, batch, n, 1))
            self._eps = np.empty((batch, steps, n, self.objective.dim))
        neg_beta = self.neg_beta = self._neg_beta[:steps]   # (C, B, n, 1)
        self.ledger.compensated_step_batch(
            kappa_before.swapaxes(0, 1), slots[:, None, None],
            out=neg_beta[..., 0])
        np.negative(neg_beta, out=neg_beta)
        eps = self.eps = self._eps[:, :steps]               # (B, C, n, d)
        for g, rows in zip(self.streams, eps):
            g.random(out=rows)
        self.noise.from_uniforms(eps, out=eps)

    def delta(self, c: int, k: int, z: np.ndarray,
              wake: np.ndarray) -> np.ndarray:
        ghat = self.objective.batch_local_gradients(z)
        ghat += self.eps[:, c]
        # a sum of finite values may still overflow, so a non-finite sum
        # only calls for the element-wise check
        if not np.isfinite(ghat.sum()):
            bad = wake & ~np.all(np.isfinite(ghat), axis=2)
            if bad.any():
                b_i, n_i = np.argwhere(bad)[0]
                run = int(self.runs[b_i])
                raise ProtocolViolationError(
                    f"non-finite gradient at node {n_i} slot {k} "
                    f"(run index {run})", run=run, slot=k, node=int(n_i))
        ghat *= self.neg_beta[c]
        return ghat


def run_gradient_push(topology: Topology, bounds: FaultBounds,
                      objective, noise: NoiseModel,
                      ledger: StepSizeLedger, horizon: int,
                      master_seed: int, runs=(0,),
                      x0: np.ndarray | None = None,
                      z_star: np.ndarray | None = None,
                      record_trace: bool = False,
                      mask: np.ndarray | None = None,
                      chunk: int | None = None
                      ) -> _engine.RunResult:
    """Batched optimizer runs. x0 defaults to all-ones (shared start)."""
    if ledger.horizon < horizon:
        raise ConfigurationError("step-size ledger shorter than horizon")
    if x0 is None:
        x0 = np.ones((topology.n, objective.dim))
    runs = tuple(runs)
    return _engine.run_protocol(
        topology, bounds, x0, horizon, master_seed, runs=runs,
        update=GradientStep(objective, noise, ledger, master_seed, runs),
        z_star=z_star, record_trace=record_trace, mask=mask, chunk=chunk)
