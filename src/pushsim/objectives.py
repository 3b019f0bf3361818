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

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng as rngmod
from .errors import ConfigurationError, ReferenceSolverError

SVM_POINTS_PER_NODE = 50
SVM_PENALTY_NUMERATOR = 500.0
SVM_CENTERS = ((1.0, 1.0), (3.0, 3.0))
REFERENCE_GRAD_TOL = 1e-10
REFERENCE_MAX_ITERS = 10 ** 6
REFERENCE_MIN_STEP = 1e-12


def smoothed_hinge(xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    return np.where(xi <= 0.0, 0.5 - xi,
                    np.where(xi < 1.0, 0.5 * (1.0 - xi) ** 2, 0.0))


def smoothed_hinge_derivative(xi: np.ndarray) -> np.ndarray:
    # the three pieces in one pass; a NaN margin stays NaN
    return np.clip(np.asarray(xi, dtype=float) - 1.0, -1.0, 0.0)


class QuadraticObjective:
    """f_i(x) = (mu_i / 2) ||x - c_i||^2."""

    def __init__(self, mu: np.ndarray, centers: np.ndarray):
        self.mu = np.asarray(mu, dtype=float)
        self.centers = np.asarray(centers, dtype=float)
        if self.mu.ndim != 1 or np.any(self.mu <= 0):
            raise ConfigurationError("quadratic weights must be positive")
        if self.centers.shape[0] != self.mu.shape[0]:
            raise ConfigurationError("one center per agent required")

    @property
    def n_agents(self) -> int:
        return self.mu.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @property
    def mu_total(self) -> float:
        return float(np.sum(self.mu))

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
        return self.mu_total * x - np.sum(self.mu[:, None] * self.centers,
                                          axis=0)

    def total_value(self, x: np.ndarray) -> float:
        diff = x - self.centers
        return float(0.5 * np.sum(self.mu * np.sum(diff * diff, axis=1)))

    def optimum(self) -> np.ndarray:
        return (np.sum(self.mu[:, None] * self.centers, axis=0)
                / self.mu_total)


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
        # batch gradients read: (d, n, s) for margins, (n, d, s) for the
        # per-node reduction, (n s, d) for the total gradient
        ya = self.labels[..., None] * np.concatenate(
            [self.features, np.ones((n, s, 1))], axis=-1)
        self._ya_k = np.ascontiguousarray(np.moveaxis(ya, -1, 0))
        self._ya_t = np.ascontiguousarray(np.swapaxes(ya, 1, 2))
        self._ya_flat = np.ascontiguousarray(ya.reshape(n * s, -1))

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
        """z is (..., n, d); gradient of f_i at z[..., i, :] for every i."""
        xi = z[..., 0, None] * self._ya_k[0]
        for k in range(1, self.dim):
            xi += z[..., k, None] * self._ya_k[k]
        dh = smoothed_hinge_derivative(xi)                   # (..., n, s)
        return (z / self.n_agents
                + self.penalty * np.matmul(self._ya_t, dh[..., None])[..., 0])

    def batch_total_gradient(self, x: np.ndarray) -> np.ndarray:
        """x is (..., d); gradient of F = sum_i f_i at each point."""
        x = np.asarray(x, dtype=float)
        ya_k = self._ya_k.reshape(self.dim, -1)              # (d, n s)
        xi = x[..., 0, None] * ya_k[0]
        for k in range(1, self.dim):
            xi += x[..., k, None] * ya_k[k]
        dh = smoothed_hinge_derivative(xi)                   # (..., n s)
        return x + self.penalty * np.matmul(dh[..., None, :],
                                            self._ya_flat)[..., 0, :]

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

    def from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return rngmod.uniform_box(u, self.half_width)


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

def generate_quadratic(n: int, dim: int, master_seed: int,
                       mu_range: tuple[float, float] = (0.5, 1.5),
                       center_halfwidth: float = 3.0) -> QuadraticObjective:
    """Heterogeneous quadratic drawn from the dataset stream.

    Consumption order: n weight uniforms, then n*dim center uniforms.
    """
    g = rngmod.stream(master_seed, 0, rngmod.Role.DATASET)
    lo, hi = mu_range
    if not 0 < lo <= hi:
        raise ConfigurationError("mu_range must satisfy 0 < lo <= hi")
    mu = lo + (hi - lo) * g.random(n)
    centers = rngmod.uniform_box(g.random((n, dim)), center_halfwidth)
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


def dump_svm_dataset(features: np.ndarray, labels: np.ndarray,
                     path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node", "feature1", "feature2", "label"])
        n, s, _ = features.shape
        for i in range(n):
            for j in range(s):
                w.writerow([i, format(features[i, j, 0], ".17g"),
                            format(features[i, j, 1], ".17g"),
                            int(labels[i, j])])


# ---------------------------------------------------------------------------
# Certified reference optimum.

@dataclass(frozen=True)
class OptimumCertificate:
    z_star: np.ndarray
    grad_norm: float
    iterations: int


def solve_reference_optimum(objective, grad_tol: float = REFERENCE_GRAD_TOL,
                            max_iters: int = REFERENCE_MAX_ITERS
                            ) -> OptimumCertificate:
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
    at once instead of spinning to max_iters.
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
    for it in range(1, max_iters + 1):
        grad = objective.batch_total_gradient(x)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= grad_tol:
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
                        f"(grad norm {gnorm:.3e} > {grad_tol:.1e})")
                cand_value = objective.total_value(cand)
                break
            cand_value = objective.total_value(cand)
            if cand_value <= value - 1e-4 * step * slope:
                break
            step *= 0.5
        x, value = cand, cand_value
    raise ReferenceSolverError(
        f"no certificate after {max_iters} iterations "
        f"(grad norm {gnorm:.3e} > {grad_tol:.1e})")


def save_optimum(cert: OptimumCertificate, path: str | Path) -> None:
    """Decimal vector plus a gradient-norm certificate line."""
    lines = ["z " + " ".join(format(v, ".17g") for v in cert.z_star),
             f"grad_norm {cert.grad_norm:.17g}",
             f"iterations {cert.iterations}"]
    Path(path).write_text("\n".join(lines) + "\n")
