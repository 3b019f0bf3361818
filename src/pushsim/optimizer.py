"""Sleep-compensated stochastic gradient-push.

An optimizing node behaves like an averaging node except that, on wake, it
first moves its value by the accumulated step sizes of every slot it slept
through (its *compensated* step) times a noisy local gradient evaluated at
its current estimate; then it pushes as usual. Timestamps start at -1 in
this mode so a slot-0 broadcast is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine as _engine
from .errors import ConfigurationError
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
        self._alphas = alphas

    def alpha(self, k: int) -> float:
        if k == 0:
            return 0.0
        return self.numerator / (self.mu * (k + self.k0))

    def compensated_step(self, last_wake: int, k: int) -> float:
        """Sum of alpha(t) for t in (last_wake, k]; last_wake may be -1."""
        return float(self.prefix[k + 1] - self.prefix[last_wake + 1])

    def compensated_step_batch(self, last_wake: np.ndarray,
                               k: int | np.ndarray) -> np.ndarray:
        """compensated_step elementwise; k broadcasts against last_wake, so
        one call covers many slots."""
        return self.prefix[k + 1] - self.prefix[last_wake + 1]


@dataclass(frozen=True)
class CompensatedStep:
    """One wake-time optimizer move (reference semantics, see tests)."""

    step: float
    gradient: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x - self.step * self.gradient


def wake_opt_step(x: np.ndarray, z: np.ndarray, ledger: StepSizeLedger,
                  last_wake: int, slot: int, gradient: np.ndarray
                  ) -> np.ndarray:
    """Reference single-node move: x - (sum of slept alphas) * gradient.

    `gradient` is the (already noisy) local gradient evaluated at z; the
    caller pushes afterwards. Raises on non-finite gradients.
    """
    if not np.all(np.isfinite(gradient)):
        raise ConfigurationError(
            f"non-finite gradient at slot {slot}")
    beta = ledger.compensated_step(last_wake, slot)
    return x - beta * gradient


def run_gradient_push(topology: Topology, bounds: FaultBounds,
                      objective, noise: NoiseModel,
                      ledger: StepSizeLedger, horizon: int,
                      master_seed: int, runs=(0,),
                      x0: np.ndarray | None = None,
                      z_star: np.ndarray | None = None,
                      record_trace: bool = False,
                      record_zbar: bool = False,
                      record_aug_mean: bool | None = None,
                      mask: np.ndarray | None = None,
                      chunk: int = _engine.DEFAULT_CHUNK
                      ) -> _engine.RunResult:
    """Batched optimizer runs. x0 defaults to all-ones (shared start)."""
    if x0 is None:
        x0 = np.ones((topology.n, objective.dim))
    return _engine.run_protocol(
        topology, bounds, x0, horizon, master_seed, runs=tuple(runs),
        init_timestamp=OPTIMIZER_INIT_TIMESTAMP, objective=objective,
        noise=noise, ledger=ledger, z_star=z_star,
        record_trace=record_trace, record_zbar=record_zbar,
        record_aug_mean=record_aug_mean, mask=mask, chunk=chunk)
