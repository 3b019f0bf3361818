"""Step-size schedule and the distributed optimizer loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushsim.errors import ConfigurationError, ProtocolViolationError
from pushsim.faultnet import FaultBounds
from pushsim.graph import build_cycle
from pushsim.objectives import (NoiseModel, QuadraticObjective,
                                SvmObjective, box_noise_model,
                                generate_quadratic, generate_svm_dataset)
from pushsim.optimizer import (OPTIMIZER_INIT_TIMESTAMP, GradientStep,
                               StepSizeLedger, run_gradient_push)
from pushsim.engine import run_protocol
from pushsim.pushsum import run_averaging

SYNC = FaultBounds(1, 0, 1)
ASYNC = FaultBounds(3, 3, 3, wake_prob=0.5, loss_prob=0.3)


def test_step_size_pinned_values():
    # compensated_step(k - 1, k) is the single step alpha(k)
    led = StepSizeLedger(numerator=1.0, mu=1.0, horizon=10)
    assert led.compensated_step(-1, 0) == 0.0
    assert led.compensated_step(4, 5) == pytest.approx(0.2)
    offset = StepSizeLedger(numerator=50.0, mu=1.0, horizon=10, k0=100)
    assert offset.compensated_step(0, 1) == pytest.approx(50.0 / 101.0)


def test_compensated_step_telescopes():
    led = StepSizeLedger(numerator=3.0, mu=2.0, horizon=20)
    # a node asleep since wake at slot 3 stepping at slot 5 pays both slots:
    # alpha(4) + alpha(5), with alpha(k) = 3 / (2 k)
    assert led.compensated_step(3, 5) == pytest.approx(3.0 / 8.0 + 3.0 / 10.0)
    # fresh node at slot 0 pays nothing (alpha(0) = 0)
    assert led.compensated_step(-1, 0) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 30), st.integers(0, 30))
def test_compensated_steps_partition_the_schedule(a, b):
    lo, hi = sorted((a, b))
    led = StepSizeLedger(numerator=2.0, mu=0.5, horizon=40, k0=3)
    total = led.compensated_step(-1, hi)
    split = led.compensated_step(-1, lo) + led.compensated_step(lo, hi)
    assert total == pytest.approx(split, abs=1e-12)


def test_step_weight_bound_holds_without_offset():
    # k * alpha-sum over any wake gap stays below n * L_u^2 / mu at k0 = 0
    n, l_u, mu = 4, 3, 0.8
    led = StepSizeLedger(numerator=float(n), mu=mu, horizon=500, k0=0)
    for k in range(1, 500):
        last = max(-1, k - l_u)
        assert k * led.compensated_step(last, k) <= n * l_u ** 2 / mu + 1e-9


class ZeroStepLedger:
    """Degenerate schedule for the reduction test; beta is always zero."""

    def __init__(self, horizon):
        self.horizon = horizon

    def compensated_step_batch(self, kappa, k):
        return np.zeros(kappa.shape)


def test_zero_steps_reduce_to_plain_averaging():
    # beta == 0 with matching timestamp conventions reproduces averaging
    topo = build_cycle(3, bidirectional=True)
    x0 = np.arange(6.0).reshape(3, 2)
    obj = generate_quadratic(3, 2, master_seed=4)
    plain = run_averaging(topo, ASYNC, x0, 80, 7, record_trace=True)
    step = GradientStep(obj, NoiseModel(0.0, 2), ZeroStepLedger(80), 7,
                        runs=(0,))
    opt = run_protocol(topo, ASYNC, x0, 80, 7, runs=(0,),
                       init_timestamp=0, update=step, record_trace=True)
    assert np.array_equal(plain.trace.x, opt.trace.x)
    assert np.array_equal(plain.trace.z, opt.trace.z)


def test_step_schedule_requires_positive_parameters():
    with pytest.raises(ConfigurationError):
        StepSizeLedger(numerator=0.0, mu=1.0, horizon=10)
    with pytest.raises(ConfigurationError):
        StepSizeLedger(numerator=1.0, mu=0.0, horizon=10)


def test_single_node_noiseless_contraction():
    # one agent, f(z) = (mu/2)(z - c)^2: each slot multiplies the gap
    # to the optimum by (1 - beta * mu)
    mu, c = 2.0, 1.5
    obj = QuadraticObjective(np.array([mu]), np.array([[c]]))
    led = StepSizeLedger(numerator=1.0, mu=mu, horizon=40)
    from pushsim.graph import Topology
    topo = Topology.singleton()
    res = run_gradient_push(topo, SYNC, obj, NoiseModel(0.0, 1), led, 40, 3,
                            x0=np.array([[0.0]]), record_trace=True)
    z = res.trace.z[:, 0, 0]
    gap = z - c
    for k in range(1, 40):
        beta = led.compensated_step(k - 1, k)
        assert gap[k + 1] == pytest.approx(gap[k] * (1.0 - beta * mu),
                                           abs=1e-12)


def test_optimizer_initial_timestamp_accepts_first_pushes():
    assert OPTIMIZER_INIT_TIMESTAMP == -1
    topo = build_cycle(2, bidirectional=True)
    obj = generate_quadratic(2, 1, master_seed=6)
    led = StepSizeLedger(numerator=2.0, mu=obj.mu_total, horizon=6)
    res = run_gradient_push(topo, SYNC, obj, NoiseModel(0.0, 1), led, 6, 2,
                            x0=np.zeros((2, 1)), record_trace=True)
    # slot-0 sends land: the merge at slot 1 changes both receive totals
    assert np.all(res.trace.rho_y[2] > 0.0)
    # whereas the averaging convention treats those first sends as stale
    avg = run_averaging(topo, SYNC, np.zeros((2, 1)), 6, 2,
                        record_trace=True)
    assert np.all(avg.trace.rho_y[2] == 0.0)
    assert np.all(avg.trace.rho_y[3] > 0.0)


def test_wake_gaps_respect_bound_in_optimizer_traces():
    topo = build_cycle(3, bidirectional=True)
    obj = generate_quadratic(3, 2, master_seed=8)
    led = StepSizeLedger(numerator=3.0, mu=obj.mu_total, horizon=200)
    res = run_gradient_push(topo, ASYNC, obj, box_noise_model(4.0, 2), led,
                            200, 5, record_trace=True)
    for i in range(3):
        wakes = np.flatnonzero(res.trace.wake[:, i])
        assert wakes[0] <= ASYNC.max_wake_gap - 1
        assert np.max(np.diff(wakes)) <= ASYNC.max_wake_gap


def test_convergence_on_heterogeneous_quadratics():
    topo = build_cycle(5, bidirectional=True)
    obj = generate_quadratic(5, 2, master_seed=10)
    led = StepSizeLedger(numerator=5.0, mu=obj.mu_total, horizon=4000)
    res = run_gradient_push(topo, ASYNC, obj, NoiseModel(0.0, 2), led,
                            4000, 10, z_star=obj.optimum())
    assert res.e_dist[0, -1] < 1e-4
    assert res.e_dist[0, -1] < res.e_dist[0, 100]


def test_noisy_runs_average_toward_optimum():
    topo = build_cycle(4, bidirectional=True)
    obj = generate_quadratic(4, 1, master_seed=12)
    led = StepSizeLedger(numerator=4.0, mu=obj.mu_total, horizon=3000)
    res = run_gradient_push(topo, SYNC, obj, box_noise_model(2.0, 1), led,
                            3000, 13, runs=tuple(range(8)),
                            z_star=obj.optimum())
    # e_dist is per run: (B, K+1)
    tail = res.e_dist[:, -1]
    assert tail.mean() < 0.05


def test_default_start_is_shared_ones_and_runs_are_deterministic():
    topo = build_cycle(3, bidirectional=True)
    obj = generate_quadratic(3, 2, master_seed=9)
    led = StepSizeLedger(numerator=3.0, mu=obj.mu_total, horizon=40)
    noise = box_noise_model(4.0, 2)
    a = run_gradient_push(topo, SYNC, obj, noise, led, 40, 31,
                          record_trace=True)
    b = run_gradient_push(topo, SYNC, obj, noise, led, 40, 31,
                          record_trace=True)
    c = run_gradient_push(topo, SYNC, obj, noise, led, 40, 32,
                          record_trace=True)
    assert np.all(a.trace.x[0] == 1.0)
    assert np.array_equal(a.trace.x, b.trace.x)
    # a different master seed redraws the gradient noise
    assert not np.array_equal(a.trace.x, c.trace.x)


def test_nonfinite_gradient_is_reported_with_location():
    class BadObjective:
        dim = 1
        n_agents = 2
        mu_total = 1.0

        def batch_local_gradients(self, z):
            g = np.zeros_like(z)
            g[..., 0] = np.where(np.abs(z[..., 0]) > 0.5, np.nan, 0.1)
            return g

    topo = build_cycle(2, bidirectional=True)
    led = StepSizeLedger(numerator=1.0, mu=1.0, horizon=50)
    with pytest.raises(ProtocolViolationError, match=r"node|slot") as info:
        run_gradient_push(topo, SYNC, BadObjective(), NoiseModel(0.0, 1),
                          led, 50, 1, x0=np.array([[4.0], [4.0]]))
    # both nodes wake at slot 0 under SYNC; the first bad one is node 0
    assert (info.value.run, info.value.slot, info.value.node) == (0, 0, 0)


@pytest.mark.parametrize("kind", ["quadratic", "svm"])
def test_runs_are_bit_identical_whatever_batch_they_run_in(kind):
    topo = build_cycle(4, bidirectional=True)
    if kind == "quadratic":
        obj = generate_quadratic(4, 2, master_seed=8)
        z_star = obj.optimum()
    else:
        features, labels = generate_svm_dataset(4, 8, points_per_node=10)
        obj = SvmObjective(features, labels)
        z_star = np.zeros(obj.dim)
    noise = box_noise_model(4.0, obj.dim)
    led = StepSizeLedger(numerator=4.0, mu=obj.mu_total, horizon=300)
    runs = (5, 0, 3, 11)
    batch = run_gradient_push(topo, ASYNC, obj, noise, led, 300, 21,
                              runs=runs, z_star=z_star)
    for i, r in enumerate(runs):
        alone = run_gradient_push(topo, ASYNC, obj, noise, led, 300, 21,
                                  runs=(r,), z_star=z_star)
        assert np.array_equal(batch.e_dist[i], alone.e_dist[0])
        assert np.array_equal(batch.z_final[i], alone.z_final[0])
