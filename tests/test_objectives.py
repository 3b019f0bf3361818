"""Local objectives, gradients, noise moments, reference optima."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pushsim import objectives
from pushsim.errors import ConfigurationError, ReferenceSolverError
from pushsim.harness import save_optimum
from pushsim.objectives import (NoiseModel, QuadraticObjective, SvmObjective,
                                box_noise_model, generate_quadratic,
                                generate_svm_dataset, smoothed_hinge,
                                smoothed_hinge_derivative,
                                solve_reference_optimum)


def central_diff(f, x, h=1e-6):
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


# ---------------------------------------------------------------- hinge

def test_hinge_pinned_values():
    xi = np.array([-2.0, 0.0, 0.5, 1.0, 3.0])
    assert np.allclose(smoothed_hinge(xi), [2.5, 0.5, 0.125, 0.0, 0.0])
    assert np.allclose(smoothed_hinge_derivative(xi),
                       [-1.0, -1.0, -0.5, 0.0, 0.0])


def test_hinge_is_c1_at_seams():
    eps = 1e-8
    for seam in (0.0, 1.0):
        lo, hi = np.array([seam - eps]), np.array([seam + eps])
        assert abs(smoothed_hinge(hi) - smoothed_hinge(lo)) < 3 * eps
        assert abs(smoothed_hinge_derivative(hi)
                   - smoothed_hinge_derivative(lo)) < 3 * eps


@given(st.floats(-5, 5), st.floats(-5, 5))
def test_hinge_convex_and_nonincreasing(a, b):
    lo, hi = np.array([min(a, b)]), np.array([max(a, b)])
    assert smoothed_hinge_derivative(lo) <= smoothed_hinge_derivative(hi) + 1e-12
    assert smoothed_hinge(lo) >= smoothed_hinge(hi) - 1e-12
    assert smoothed_hinge_derivative(lo) >= -1.0


def test_hinge_derivative_matches_difference_quotient():
    xi = np.linspace(-2.0, 2.0, 41)       # includes both seams
    h = 1e-6
    fd = (smoothed_hinge(xi + h) - smoothed_hinge(xi - h)) / (2 * h)
    assert np.max(np.abs(fd - smoothed_hinge_derivative(xi))) < 1e-6


# ------------------------------------------------------------ quadratics

def test_quadratic_pinned_optimum():
    q = QuadraticObjective(np.array([1.0, 3.0]), np.array([[0.0], [4.0]]))
    assert np.allclose(q.optimum(), [3.0])
    assert q.mu_total == 4.0
    assert np.allclose(q.batch_total_gradient(np.array([[3.0]])), 0.0)
    assert q.local_value(0, np.array([1.0])) == 0.5
    assert np.allclose(q.local_gradient(1, np.array([1.0])), [-9.0])


def test_quadratic_generation_ranges_and_determinism():
    q1 = generate_quadratic(10, 2, master_seed=11)
    q2 = generate_quadratic(10, 2, master_seed=11)
    assert np.array_equal(q1.mu, q2.mu) and np.array_equal(q1.centers,
                                                           q2.centers)
    assert np.all((q1.mu >= 0.5) & (q1.mu <= 1.5))
    assert np.all(np.abs(q1.centers) <= 3.0)
    q3 = generate_quadratic(10, 2, master_seed=12)
    assert not np.array_equal(q1.mu, q3.mu)


def test_quadratic_gradients_match_finite_differences():
    q = generate_quadratic(4, 3, master_seed=5)
    rng = np.random.default_rng(0)
    for i in range(q.n_agents):
        x = rng.normal(size=3)
        g = q.local_gradient(i, x)
        fd = central_diff(lambda z: q.local_value(i, z), x)
        assert np.max(np.abs(g - fd)) <= 1e-5 * (1 + np.abs(g).max())


def test_quadratic_strong_convexity_and_lipschitz_witnesses():
    q = generate_quadratic(6, 2, master_seed=3)
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=2), rng.normal(size=2)
    for i in range(q.n_agents):
        ga, gb = q.local_gradient(i, a), q.local_gradient(i, b)
        inner = float((ga - gb) @ (a - b))
        dist2 = float((a - b) @ (a - b))
        assert inner >= q.mu[i] * dist2 - 1e-12
        assert np.linalg.norm(ga - gb) <= \
            q.lipschitz_local[i] * np.sqrt(dist2) + 1e-12
    ta = q.batch_total_gradient(a[None])[0]
    tb = q.batch_total_gradient(b[None])[0]
    assert float((ta - tb) @ (a - b)) >= q.mu_total * dist2 - 1e-12


def test_batch_gradients_agree_with_scalar_path():
    q = generate_quadratic(5, 2, master_seed=9)
    z = np.random.default_rng(2).normal(size=(5, 2))
    batch = q.batch_local_gradients(z)
    for i in range(5):
        assert np.allclose(batch[i], q.local_gradient(i, z[i]), atol=1e-14)


# ------------------------------------------------------------------ svm

def test_svm_batch_gradients_agree_with_scalar_path():
    s = SvmObjective(*generate_svm_dataset(50, 17))
    z = np.random.default_rng(3).normal(0.5, 1.5, size=(4, 50, s.dim))
    batch = s.batch_local_gradients(z)
    for b in range(4):
        for i in range(50):
            assert np.max(np.abs(batch[b, i]
                                 - s.local_gradient(i, z[b, i]))) <= 1e-13
    total = s.batch_total_gradient(z[:, 0])
    for b in range(4):
        summed = sum(s.local_gradient(i, z[b, 0]) for i in range(50))
        assert np.max(np.abs(total[b] - summed)) <= 1e-12


# Rows sliced at offset 3 hand the matrix products operands at other
# addresses than a fresh array's.
@pytest.mark.parametrize("batch", [1, 5, 10, 11, 100])
def test_svm_local_gradient_rows_do_not_depend_on_the_batch(batch):
    s = SvmObjective(*generate_svm_dataset(50, 18))
    z = np.random.default_rng(5).normal(0.5, 1.5, size=(103, 50, s.dim))
    for offset in (0, 3):
        out = s.batch_local_gradients(z[offset:offset + batch])
        for b in range(batch):
            row = z[offset + b]
            assert np.array_equal(out[b], s.batch_local_gradients(row))
            assert np.array_equal(out[b],
                                  s.batch_local_gradients(row.copy()))
            assert np.array_equal(out[b],
                                  s.batch_local_gradients(row[None])[0])


@pytest.mark.parametrize("batch", [1, 5, 100])
def test_svm_total_gradient_rows_do_not_depend_on_the_batch(batch):
    s = SvmObjective(*generate_svm_dataset(50, 18))
    x = np.random.default_rng(4).normal(0.5, 1.5, size=(103, s.dim))
    for offset in (0, 3):
        out = s.batch_total_gradient(x[offset:offset + batch])
        for b in range(batch):
            row = x[offset + b]
            assert np.array_equal(out[b], s.batch_total_gradient(row))
            assert np.array_equal(out[b], s.batch_total_gradient(row.copy()))
            assert np.array_equal(out[b],
                                  s.batch_total_gradient(row[None])[0])


def test_svm_dataset_shapes_and_determinism():
    f1, l1 = generate_svm_dataset(6, 21)
    f2, l2 = generate_svm_dataset(6, 21)
    assert f1.shape == (6, 50, 2) and l1.shape == (6, 50)
    assert np.array_equal(f1, f2) and np.array_equal(l1, l2)
    assert set(np.unique(l1)) == {-1.0, 1.0}
    f3, _ = generate_svm_dataset(6, 22)
    assert not np.array_equal(f1, f3)


def test_svm_penalty_normalization():
    feats, labs = generate_svm_dataset(50, 4)
    s = SvmObjective(feats, labs)
    assert s.penalty == pytest.approx(500.0 / (50 * 50))
    # C_N * N * h(0) = 250 regardless of the node count
    assert s.total_value(np.zeros(s.dim)) == pytest.approx(250.0)
    small = SvmObjective(*generate_svm_dataset(5, 4))
    assert small.total_value(np.zeros(small.dim)) == pytest.approx(250.0)


def test_svm_local_values_sum_to_total():
    s = SvmObjective(*generate_svm_dataset(7, 13))
    x = np.random.default_rng(3).normal(size=s.dim)
    total = sum(s.local_value(i, x) for i in range(s.n_agents))
    assert total == pytest.approx(s.total_value(x), rel=1e-12)


def test_svm_gradients_match_finite_differences():
    s = SvmObjective(*generate_svm_dataset(4, 17))
    rng = np.random.default_rng(4)
    for i in range(s.n_agents):
        x = rng.normal(size=s.dim)
        g = s.local_gradient(i, x)
        fd = central_diff(lambda z: s.local_value(i, z), x)
        assert np.max(np.abs(g - fd)) <= 1e-5 * (1 + np.abs(g).max())
    x = rng.normal(size=s.dim)
    g = s.batch_total_gradient(x[None])[0]
    fd = central_diff(s.total_value, x)
    assert np.max(np.abs(g - fd)) <= 1e-5 * (1 + np.abs(g).max())


def test_svm_strong_convexity_from_regularizer():
    s = SvmObjective(*generate_svm_dataset(3, 8))
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=s.dim), rng.normal(size=s.dim)
    ga = s.batch_total_gradient(a[None])[0]
    gb = s.batch_total_gradient(b[None])[0]
    dist2 = float((a - b) @ (a - b))
    assert float((ga - gb) @ (a - b)) >= s.mu_total * dist2 - 1e-9
    assert s.mu_total == 1.0


def test_svm_hessian_matches_gradient_differences():
    s = SvmObjective(*generate_svm_dataset(3, 8))
    x = np.random.default_rng(6).normal(size=s.dim)
    H = s.total_hessian(x)
    assert np.allclose(H, H.T)
    assert np.all(np.linalg.eigvalsh(H) >= 1.0 - 1e-12)
    fd = np.column_stack([
        central_diff(lambda z, j=j: s.batch_total_gradient(z[None])[0][j], x)
        for j in range(s.dim)])
    assert np.max(np.abs(H - fd.T)) <= 1e-4 * (1 + np.abs(H).max())


def test_reference_optimum_certificate():
    s = SvmObjective(*generate_svm_dataset(10, 30))
    cert = solve_reference_optimum(s)
    assert cert.grad_norm <= 1e-10
    assert cert.iterations < 100
    g = s.batch_total_gradient(cert.z_star[None])[0]
    assert np.linalg.norm(g) <= 1e-10
    # perturbing the certificate must raise the objective
    f_star = s.total_value(cert.z_star)
    bump = np.zeros(s.dim)
    bump[0] = 1e-3
    assert s.total_value(cert.z_star + bump) > f_star


class _EinsumSvm(SvmObjective):
    """The 0.2.0 total gradient: x broadcast to every node, per-node einsum
    gradients summed. Its bits differ from the direct form in the last
    places, which moves where damped Newton stalls."""

    def batch_total_gradient(self, x):
        z = np.broadcast_to(x[None, :], (self.n_agents, self.dim))
        w, g = z[:, :-1], z[:, -1]
        proj = np.einsum("nsp,...np->...ns", self.features, w)
        dh = smoothed_hinge_derivative(
            self.labels * (proj + g[:, None])) * self.labels
        grad_w = w / self.n_agents + self.penalty * np.einsum(
            "...ns,nsp->...np", dh, self.features)
        grad_g = g / self.n_agents + self.penalty * np.sum(dh, axis=-1)
        return np.sum(np.concatenate([grad_w, grad_g[:, None]], axis=-1),
                      axis=0)


# Each stalled damped Newton at a gradient norm near 1e-8 (a data point
# within 1e-7 of the hinge kink) with one of the two gradient forms.
@pytest.mark.parametrize("seed", [848719546155243482, 6368536787037737242])
@pytest.mark.parametrize("form", [SvmObjective, _EinsumSvm])
def test_reference_optimum_certifies_where_newton_stalled(seed, form):
    s = form(*generate_svm_dataset(50, seed))
    cert = solve_reference_optimum(s)
    assert cert.grad_norm <= 1e-10
    assert cert.iterations < 100
    assert np.linalg.norm(s.batch_total_gradient(cert.z_star)) <= 1e-10


class _Stuck:
    """Every move raises the value, and the fixed step 1/L underflows."""

    dim = 1
    lipschitz_local = np.array([1e308])

    def __init__(self):
        self.gradient_calls = 0

    def optimum(self):
        return None

    def total_value(self, x):
        return float(np.abs(x).sum())

    def total_hessian(self, x):
        return np.eye(1)

    def batch_total_gradient(self, x):
        self.gradient_calls += 1
        return np.array([1e-20])


def test_reference_solver_raises_when_an_iteration_moves_nothing(
        monkeypatch):
    stuck = _Stuck()
    monkeypatch.setattr(objectives, "REFERENCE_GRAD_TOL", 1e-30)
    with pytest.raises(ReferenceSolverError, match="unchanged"):
        solve_reference_optimum(stuck)
    assert stuck.gradient_calls == 1


def test_reference_solver_raises_on_a_non_finite_gradient():
    stuck = _Stuck()
    stuck.batch_total_gradient = lambda x: np.array([np.nan])
    with pytest.raises(ReferenceSolverError, match="non-finite"):
        solve_reference_optimum(stuck)


class _NoCurvature:
    """(x - 1)^2 with neither a closed-form optimum nor total_hessian."""

    dim = 1
    lipschitz_local = np.array([2.0])

    def __init__(self):
        self.gradient_calls = 0

    def optimum(self):
        return None

    def total_value(self, x):
        return float(np.sum((x - 1.0) ** 2))

    def batch_total_gradient(self, x):
        self.gradient_calls += 1
        return 2.0 * (x - 1.0)


def test_reference_solver_refuses_an_objective_without_a_hessian():
    flat = _NoCurvature()
    with pytest.raises(ConfigurationError,
                       match="neither a closed-form optimum nor "
                             "total_hessian"):
        solve_reference_optimum(flat)
    assert flat.gradient_calls == 0


def test_quadratic_reference_matches_closed_form():
    q = generate_quadratic(5, 2, master_seed=14)
    cert = solve_reference_optimum(q)
    assert np.max(np.abs(cert.z_star - q.optimum())) <= 1e-9


# ------------------------------------------------------------- noise

def test_noise_moments_pinned():
    nm = box_noise_model(4.0, 2)
    assert nm.half_width == 2.0
    assert nm.second_moment == pytest.approx(8.0 / 3.0)
    assert nm.norm_bound == pytest.approx(2.0 * np.sqrt(2.0))
    scaled = box_noise_model(4.0, 2, scale=np.sqrt(50.0))
    assert scaled.second_moment == pytest.approx(50.0 * 8.0 / 3.0)


def test_noise_empirical_second_moment():
    nm = box_noise_model(4.0, 3)
    u = np.random.default_rng(7).random((200000, 3))
    eps = nm.from_uniforms(u)
    assert np.all(np.abs(eps) <= nm.half_width)
    measured = np.mean(np.sum(eps * eps, axis=1))
    assert measured == pytest.approx(nm.second_moment, rel=0.02)


def test_noise_model_validation():
    with pytest.raises(ConfigurationError):
        box_noise_model(0.0, 2)
    with pytest.raises(ConfigurationError):
        box_noise_model(4.0, 0)
    # explicit zero-noise construction stays available for tests
    silent = NoiseModel(0.0, 2)
    assert silent.second_moment == 0.0


# ------------------------------------------------------------ file io

def test_optimum_round_trip(tmp_path):
    q = generate_quadratic(3, 2, master_seed=2)
    cert = solve_reference_optimum(q)
    path = tmp_path / "optimum.csv"
    save_optimum(cert, path)
    fields = dict(line.split(" ", 1) for line in path.read_text().splitlines())
    assert np.array_equal(np.array(fields["z"].split(), dtype=float),
                          cert.z_star)
    assert float(fields["grad_norm"]) == cert.grad_norm
