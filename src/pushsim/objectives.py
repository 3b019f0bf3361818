"""Separable objectives F(x) = sum_i f_i(x), noise, and reference optima.

Two concrete families:

- heterogeneous quadratics f_i(x) = (mu_i / 2) * ||x - c_i||^2 with the
  closed-form optimum sum(mu_i c_i) / sum(mu_i);
- binary SVM with a smoothed hinge: each agent holds `points_per_node`
  labeled points and
  f_i(w, g) = (1/(2n)) (||w||^2 + g^2) + C * sum_j h(y_j (A_j . w + g)),
  C = c / N with N the total point count, so sum_i f_i is 1-strongly convex
  in the regularizer alone when mu_i = 1/n.

The smoothed hinge and its derivative:
    h(s)  = 0.5 - s          s <= 0      h'(s) = -1
          = 0.5 (1 - s)^2    0 < s < 1   h'(s) = s - 1
          = 0                s >= 1      h'(s) = 0
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import ConfigurationError, ReferenceSolverError

QUADRATIC_MU_RANGE = (0.5, 1.5)
QUADRATIC_CENTER_HALFWIDTH = 3.0
SVM_POINTS_PER_NODE = 50
SVM_PENALTY_NUMERATOR = 500.0
SVM_CENTERS = ((1.0, 1.0), (3.0, 3.0))
REFERENCE_GRAD_TOL = 1e-10
REFERENCE_MAX_ITERS = 10 ** 6
REFERENCE_MIN_STEP = 1e-12
# leading rows per SVM local-gradient block: at n = 50 nodes of 50 points a
# block's (10, n, s) margins take 200 KB
LOCAL_GRADIENT_BLOCK = 10


def smoothed_hinge(xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    return np.where(xi <= 0.0, 0.5 - xi,
                    np.where(xi < 1.0, 0.5 * (1.0 - xi) ** 2, 0.0))


def smoothed_hinge_derivative(xi: np.ndarray,
                              out: np.ndarray | None = None) -> np.ndarray:
    # the three pieces in one pass; a NaN margin stays NaN. The batch
    # gradients pass out=xi, so a call holds one margin array, not three:
    # at 100 runs each is 2 MB, and glibc's malloc gave three back to the
    # system and faulted them in again on every baseline step of
    # svm_sync_cycle50 (28.7 million page faults, 37 s of system time on a
    # shared 2-core x86-64 host).
    shifted = np.subtract(np.asarray(xi, dtype=float), 1.0, out=out)
    return np.clip(shifted, -1.0, 0.0, out=out)


class QuadraticObjective:
    """f_i(x) = (mu_i / 2) ||x - c_i||^2."""

    def __init__(self, mu: np.ndarray, centers: np.ndarray):
        self.mu = np.asarray(mu, dtype=float)
        self.centers = np.asarray(centers, dtype=float)
        if self.mu.ndim != 1 or np.any(self.mu <= 0):
            raise ConfigurationError("quadratic weights must be positive")
        if self.centers.shape[0] != self.mu.shape[0]:
            raise ConfigurationError("one center per agent required")
        # constants of the total gradient, which the centralized baseline
        # evaluates every step
        self.mu_total = float(np.sum(self.mu))
        self._weighted_centers = np.sum(self.mu[:, None] * self.centers,
                                        axis=0)

    @property
    def n_agents(self) -> int:
        return self.mu.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @property
    def lipschitz_local(self) -> np.ndarray:
        return self.mu.copy()

    def local_gradient(self, i: int, z: np.ndarray) -> np.ndarray:
        return self.mu[i] * (np.asarray(z, dtype=float) - self.centers[i])

    def local_value(self, i: int, z: np.ndarray) -> float:
        diff = np.asarray(z, dtype=float) - self.centers[i]
        return float(0.5 * self.mu[i] * np.dot(diff, diff))

    def batch_local_gradients(self, z: np.ndarray) -> np.ndarray:
        """z is (..., n, d); gradient of f_i at z[..., i, :] for every i."""
        return self.mu[:, None] * (z - self.centers)

    def batch_total_gradient(self, x: np.ndarray) -> np.ndarray:
        """x is (..., d); gradient of F = sum_i f_i at each point."""
        return self.mu_total * x - self._weighted_centers

    def total_value(self, x: np.ndarray) -> float:
        diff = x - self.centers
        return float(0.5 * np.sum(self.mu * np.sum(diff * diff, axis=1)))

    def optimum(self) -> np.ndarray:
        return self._weighted_centers / self.mu_total


class SvmObjective:
    """Distributed smoothed-hinge SVM in homogeneous form x = (w, g)."""

    def __init__(self, features: np.ndarray, labels: np.ndarray,
                 penalty_numerator: float = SVM_PENALTY_NUMERATOR):
        self.features = np.asarray(features, dtype=float)  # (n, s, p)
        self.labels = np.asarray(labels, dtype=float)      # (n, s), +-1
        if self.features.ndim != 3 or self.labels.shape != self.features.shape[:2]:
            raise ConfigurationError("features (n, s, p) and labels (n, s)")
        n, s, _ = self.features.shape
        self.penalty = penalty_numerator / (n * s)  # C = c / N
        # label-weighted augmented features y_j (A_j, 1), in the layouts the
        # batch gradients read: (n, d, s) for the per-node margins and
        # reduction, (d, n s) for the total margins, (n s, d) for the total
        # reduction
        ya = self.labels[..., None] * np.concatenate(
            [self.features, np.ones((n, s, 1))], axis=-1)
        self._ya_t = np.ascontiguousarray(np.swapaxes(ya, 1, 2))
        self._ya_flat = np.ascontiguousarray(ya.reshape(n * s, -1))
        self._ya_flat_t = np.ascontiguousarray(self._ya_flat.T)

    @property
    def n_agents(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[2] + 1

    @property
    def mu_total(self) -> float:
        return 1.0

    @property
    def lipschitz_local(self) -> np.ndarray:
        # h'' <= 1, so L_i = 1/n + C * sum_j ||(A_j, 1)||^2
        sq = np.sum(self.features ** 2, axis=2) + 1.0  # (n, s)
        return 1.0 / self.n_agents + self.penalty * np.sum(sq, axis=1)

    def local_gradient(self, i: int, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        w, g = z[:-1], z[-1]
        xi = self.labels[i] * (self.features[i] @ w + g)
        dh = smoothed_hinge_derivative(xi) * self.labels[i]  # (s,)
        grad_w = w / self.n_agents + self.penalty * (dh @ self.features[i])
        grad_g = g / self.n_agents + self.penalty * np.sum(dh)
        return np.concatenate([grad_w, [grad_g]])

    def local_value(self, i: int, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        w, g = z[:-1], z[-1]
        xi = self.labels[i] * (self.features[i] @ w + g)
        reg = 0.5 / self.n_agents * (np.dot(w, w) + g * g)
        return float(reg + self.penalty * np.sum(smoothed_hinge(xi)))

    def batch_local_gradients(self, z: np.ndarray) -> np.ndarray:
        """z is (..., n, d); gradient of f_i at z[..., i, :] for every i.

        Evaluated in blocks of LOCAL_GRADIENT_BLOCK leading rows, whose
        margins stay in cache. Each (run, node) row is its own matrix
        product, so a row's bits depend on neither its batch nor its block.
        """
        if z.ndim < 3 or z.shape[0] <= LOCAL_GRADIENT_BLOCK:
            return self._local_gradients(z)
        return np.concatenate([
            self._local_gradients(z[b:b + LOCAL_GRADIENT_BLOCK])
            for b in range(0, z.shape[0], LOCAL_GRADIENT_BLOCK)])

    def _local_gradients(self, z: np.ndarray) -> np.ndarray:
        xi = np.matmul(z[..., None, :], self._ya_t)[..., 0, :]  # (..., n, s)
        dh = smoothed_hinge_derivative(xi, out=xi)
        return (z / self.n_agents
                + self.penalty * np.matmul(self._ya_t, dh[..., None])[..., 0])

    def batch_total_gradient(self, x: np.ndarray) -> np.ndarray:
        """x is (..., d); gradient of F = sum_i f_i at each point, one
        matrix product per point."""
        x = np.asarray(x, dtype=float)
        xi = np.matmul(x[..., None, :], self._ya_flat_t)     # (..., 1, n s)
        dh = smoothed_hinge_derivative(xi, out=xi)
        return x + self.penalty * np.matmul(dh, self._ya_flat)[..., 0, :]

    def total_value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        w, g = x[:-1], x[-1]
        xi = self.labels * (self.features @ w + g[None])
        reg = 0.5 * (np.dot(w, w) + g * g)
        return float(reg + self.penalty * np.sum(smoothed_hinge(xi)))

    def total_hessian(self, x: np.ndarray) -> np.ndarray:
        # piecewise quadratic: curvature 1 per point inside the hinge band
        x = np.asarray(x, dtype=float)
        w, g = x[:-1], x[-1]
        xi = self.labels * (self.features @ w + g[None])
        band = ((xi >= 0.0) & (xi < 1.0)).astype(float).reshape(-1)
        # y_j^2 = 1, so the label-weighted rows give the same products
        flat = self._ya_flat
        return np.eye(self.dim) + self.penalty * (flat.T * band) @ flat

    def optimum(self) -> None:
        return None  # no closed form; see solve_reference_optimum


@dataclass(frozen=True)
class NoiseModel:
    """Coordinate-wise uniform noise on [-half_width, half_width)."""

    half_width: float
    dim: int

    @property
    def norm_bound(self) -> float:
        return self.half_width * np.sqrt(self.dim)

    @property
    def second_moment(self) -> float:
        """E ||eps||^2 = d * half_width^2 / 3."""
        return self.dim * self.half_width ** 2 / 3.0

    def from_uniforms(self, u: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
        return rngmod.uniform_box(u, self.half_width, out=out)


def box_noise_model(box_width: float, dim: int,
                    scale: float = 1.0) -> NoiseModel:
    """Noise uniform on [-scale * b/2, scale * b/2)^d for box width b."""
    if box_width <= 0:
        raise ConfigurationError("noise box width must be positive")
    if dim < 1:
        raise ConfigurationError("noise dimension must be >= 1")
    return NoiseModel(scale * box_width / 2.0, dim)


# ---------------------------------------------------------------------------
# Problem generators.

def generate_quadratic(n: int, dim: int,
                       master_seed: int) -> QuadraticObjective:
    """Heterogeneous quadratic drawn from the dataset stream: weights
    uniform on QUADRATIC_MU_RANGE, centers uniform on the box of
    half-width QUADRATIC_CENTER_HALFWIDTH.

    Consumption order: n weight uniforms, then n*dim center uniforms.
    """
    g = rngmod.stream(master_seed, 0, rngmod.Role.DATASET)
    lo, hi = QUADRATIC_MU_RANGE
    mu = lo + (hi - lo) * g.random(n)
    centers = rngmod.uniform_box(g.random((n, dim)),
                                 QUADRATIC_CENTER_HALFWIDTH)
    return QuadraticObjective(mu, centers)


def generate_svm_dataset(n: int, master_seed: int,
                         points_per_node: int = SVM_POINTS_PER_NODE
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Per node: half the points from N((1,1), I) labeled -1, half from
    N((3,3), I) labeled +1. Returns (features (n, s, 2), labels (n, s))."""
    if points_per_node % 2:
        raise ConfigurationError("points_per_node must be even")
    g = rngmod.stream(master_seed, 0, rngmod.Role.DATASET)
    half = points_per_node // 2
    raw = g.standard_normal((n, points_per_node, 2))
    features = raw.copy()
    features[:, :half, :] += np.asarray(SVM_CENTERS[0])
    features[:, half:, :] += np.asarray(SVM_CENTERS[1])
    labels = np.ones((n, points_per_node))
    labels[:, :half] = -1.0
    return features, labels


# ---------------------------------------------------------------------------
# Certified reference optimum.

@dataclass(frozen=True)
class OptimumCertificate:
    z_star: np.ndarray
    grad_norm: float
    iterations: int


def solve_reference_optimum(objective) -> OptimumCertificate:
    """Deterministic optimum of F = sum_i f_i with a gradient-norm certificate.

    An objective whose optimum() is not None is solved in closed form.
    Any other objective must expose total_hessian, and gets damped Newton
    from the origin with a backtracking line search (the smoothed-hinge
    objective is piecewise quadratic, so this lands on machine precision in
    a handful of steps); one with neither raises ConfigurationError.

    Near the optimum the Newton decrease can fall below the resolution of
    total_value (a data point near the hinge kink), so backtracking ends
    on a step that leaves x unchanged. When a trial step leaves x unchanged
    or drops below REFERENCE_MIN_STEP, the iteration instead takes the
    fixed step grad / L with L = sum(lipschitz_local), a global Lipschitz
    bound of grad F, which lowers F with no line search. If that step also
    leaves x unchanged, or the gradient is not finite, the solver raises
    at once instead of spinning to REFERENCE_MAX_ITERS.

    The certificate asks for a gradient norm at most REFERENCE_GRAD_TOL.
    """
    closed = objective.optimum()
    if closed is not None:
        gnorm = float(np.linalg.norm(objective.batch_total_gradient(closed)))
        return OptimumCertificate(closed, gnorm, 0)
    if not hasattr(objective, "total_hessian"):
        raise ConfigurationError(
            f"{type(objective).__name__} has neither a closed-form optimum "
            "nor total_hessian")
    x = np.zeros(objective.dim)
    value = objective.total_value(x)
    for it in range(1, REFERENCE_MAX_ITERS + 1):
        grad = objective.batch_total_gradient(x)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= REFERENCE_GRAD_TOL:
            return OptimumCertificate(x, gnorm, it - 1)
        if not np.isfinite(gnorm):
            raise ReferenceSolverError(
                f"non-finite gradient at iteration {it}")
        direction = np.linalg.solve(objective.total_hessian(x), grad)
        slope = float(np.dot(grad, direction))
        step = 1.0
        while True:
            cand = x - step * direction
            if step < REFERENCE_MIN_STEP or np.array_equal(cand, x):
                cand = x - grad / float(np.sum(objective.lipschitz_local))
                if np.array_equal(cand, x):
                    raise ReferenceSolverError(
                        f"iteration {it} left x unchanged "
                        f"(grad norm {gnorm:.3e} > {REFERENCE_GRAD_TOL:.1e})")
                cand_value = objective.total_value(cand)
                break
            cand_value = objective.total_value(cand)
            if cand_value <= value - 1e-4 * step * slope:
                break
            step *= 0.5
        x, value = cand, cand_value
    raise ReferenceSolverError(
        f"no certificate after {REFERENCE_MAX_ITERS} iterations "
        f"(grad norm {gnorm:.3e} > {REFERENCE_GRAD_TOL:.1e})")
