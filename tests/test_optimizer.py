"""Step-size schedule and the distributed optimizer loop."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushsim.errors import ConfigurationError, ProtocolViolationError
from pushsim.faultnet import FaultBounds
from pushsim.graph import build_cycle, build_random_strongly_connected
from pushsim.objectives import (NoiseModel, QuadraticObjective,
                                SvmObjective, box_noise_model,
                                generate_quadratic, generate_svm_dataset)
from pushsim.optimizer import GradientStep, StepSizeLedger, run_gradient_push
from pushsim.engine import run_protocol
from pushsim.rng import Role, stream

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

    def compensated_step_batch(self, kappa, k, out=None):
        if out is None:
            out = np.empty(kappa.shape)
        out.fill(0.0)
        return out


def test_zero_steps_reduce_to_plain_averaging():
    # beta == 0 reproduces averaging
    topo = build_cycle(3, bidirectional=True)
    x0 = np.arange(6.0).reshape(3, 2)
    obj = generate_quadratic(3, 2, master_seed=4)
    plain = run_protocol(topo, ASYNC, x0, 80, 7, record_trace=True)
    step = GradientStep(obj, NoiseModel(0.0, 2), ZeroStepLedger(80), 7,
                        runs=(0,))
    opt = run_protocol(topo, ASYNC, x0, 80, 7, runs=(0,), update=step,
                       record_trace=True)
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
    topo = build_cycle(2, bidirectional=True)
    obj = generate_quadratic(2, 1, master_seed=6)
    led = StepSizeLedger(numerator=2.0, mu=obj.mu_total, horizon=6)
    res = run_gradient_push(topo, SYNC, obj, NoiseModel(0.0, 1), led, 6, 2,
                            x0=np.zeros((2, 1)), record_trace=True)
    # slot-0 sends land: the merge at slot 1 changes both receive totals,
    # under gradient-push and plain averaging alike
    avg = run_protocol(topo, SYNC, np.zeros((2, 1)), 6, 2,
                       record_trace=True)
    for trace in (res.trace, avg.trace):
        assert np.all(trace.rho_y[2] > 0.0)


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
    # a cycle, and a random graph whose in-arc table is padded (in-degrees
    # 3, 1, 3, 3, 4, 3), at chunk sizes that split the horizon differently
    padded = build_random_strongly_connected(6, 0.4,
                                             stream(3, 0, Role.TOPOLOGY))
    for topo in (build_cycle(4, bidirectional=True), padded):
        n = topo.n
        if kind == "quadratic":
            obj = generate_quadratic(n, 2, master_seed=8)
            z_star = obj.optimum()
        else:
            features, labels = generate_svm_dataset(n, 8, points_per_node=10)
            obj = SvmObjective(features, labels)
            z_star = np.zeros(obj.dim)
        noise = box_noise_model(4.0, obj.dim)
        led = StepSizeLedger(numerator=n, mu=obj.mu_total, horizon=300)
        runs = (5, 0, 3, 11)
        for chunk in (1, 7, 128, None):
            batch = run_gradient_push(topo, ASYNC, obj, noise, led, 300, 21,
                                      runs=runs, z_star=z_star, chunk=chunk)
            for i, r in enumerate(runs):
                alone = run_gradient_push(topo, ASYNC, obj, noise, led, 300,
                                          21, runs=(r,), z_star=z_star,
                                          chunk=128)
                case = (n, chunk, r)
                assert np.array_equal(batch.e_dist[i], alone.e_dist[0]), case
                assert np.array_equal(batch.z_final[i],
                                      alone.z_final[0]), case


@pytest.mark.parametrize("kind", ["svm_sync", "quad_async"])
def test_a_large_batch_holds_tables_of_a_bounded_size(kind):
    # At a fixed 128 slots per chunk, one call's traced peak grew with the
    # batch: 101 MiB for the SVM case and 64 MiB for the quadratic one.
    # Chunks of faultnet.chunk_slots keep both near 8 MiB.
    if kind == "svm_sync":
        topo, bounds, batch, horizon = (build_cycle(50, bidirectional=True),
                                        SYNC, 100, 64)
        obj = SvmObjective(*generate_svm_dataset(50, 2024))
    else:
        topo, bounds, batch, horizon = (build_cycle(10, bidirectional=True),
                                        ASYNC, 200, 300)
        obj = generate_quadratic(10, 2, master_seed=11)
    noise = box_noise_model(4.0, obj.dim)
    led = StepSizeLedger(numerator=topo.n, mu=obj.mu_total, horizon=horizon,
                         k0=20)
    tracemalloc.start()
    try:
        run_gradient_push(topo, bounds, obj, noise, led, horizon, 7,
                          runs=range(batch), z_star=np.zeros(obj.dim))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20, peak / 2 ** 20


# One call's traced peak at the benchmark's op shapes (svm_sync B = 5,
# quad_async B = 50), in MiB, measured with Python 3.11 and numpy 2.4: with
# every chunk's tables built while the last chunk's were alive it read 5.48
# and 6.12; with one generation of tables refilled in place, 4.49 and 5.42;
# with the acceptance pass run in place and the last wakes and compensated
# steps refilled too, 3.83 and 4.74; with the stale check's mask and the
# divisor built in place too, 3.66 and 4.65. The bounds allow 5% over these.
OP_SHAPE_PEAK_MIB = {"svm_sync": 3.66 * 1.05, "quad_async": 4.65 * 1.05}


@pytest.mark.parametrize("kind", ["svm_sync", "quad_async"])
def test_a_call_holds_one_generation_of_chunk_tables(kind):
    if kind == "svm_sync":
        topo, bounds, batch, horizons, k0 = (
            build_cycle(50, bidirectional=True), SYNC, 5, (500, 2000), 100)
        obj = SvmObjective(*generate_svm_dataset(50, 2024))
        z_star = np.zeros(obj.dim)
    else:
        topo, bounds, batch, horizons, k0 = (
            build_cycle(10, bidirectional=True), ASYNC, 50, (1000, 4000), 20)
        obj = generate_quadratic(10, 2, master_seed=11)
        z_star = obj.optimum()
    noise = box_noise_model(4.0, obj.dim)
    peaks = []
    for horizon in horizons:
        led = StepSizeLedger(numerator=topo.n, mu=obj.mu_total,
                             horizon=horizon, k0=k0)
        tracemalloc.start()
        try:
            run_gradient_push(topo, bounds, obj, noise, led, horizon, 7,
                              runs=range(batch), z_star=z_star)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Only the error series grows with the horizon; 5% of the peak covers
    # the few kB that interpreter objects and short last chunks move it by.
    series = batch * (horizons[1] - horizons[0]) * 8
    assert peaks[1] - peaks[0] <= series + 0.05 * peaks[0], peaks
    assert peaks[0] < OP_SHAPE_PEAK_MIB[kind] * 2 ** 20, peaks[0] / 2 ** 20


def test_schedule_pass_refills_its_tables(monkeypatch):
    # The last wakes, the compensated steps and the acceptance pass work in
    # tables allocated once per call. From 50 to 400 slots per chunk, a
    # call's traced peak grows by numpy's fixed ufunc buffers at most; one
    # fresh int64 table would add 700 kB per node or 1.4 MB per arc, and
    # the stale check's bool masks, if fresh, 180 kB each.
    from pushsim import engine
    topo = build_cycle(50, bidirectional=True)
    obj = generate_quadratic(50, 2, master_seed=3)
    led = StepSizeLedger(numerator=topo.n, mu=obj.mu_total, horizon=800)
    batch = 5
    peaks = {}

    def traced(fn, name):
        def call(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            peaks[name] = max(peaks.get(name, 0),
                              tracemalloc.get_traced_memory()[1] - base)
            return result
        return call

    monkeypatch.setattr(engine, "last_wakes",
                        traced(engine.last_wakes, "last_wakes"))
    monkeypatch.setattr(StepSizeLedger, "compensated_step_batch",
                        traced(StepSizeLedger.compensated_step_batch,
                               "steps"))
    monkeypatch.setattr(engine._Acceptance, "advance",
                        traced(engine._Acceptance.advance, "acceptance"))
    by_chunk = []
    for chunk in (50, 400):
        peaks.clear()
        tracemalloc.start()
        try:
            run_gradient_push(topo, ASYNC, obj, NoiseModel(0.0, 2), led, 800,
                              7, runs=range(batch), chunk=chunk)
        finally:
            tracemalloc.stop()
        by_chunk.append(dict(peaks))
    for name in ("last_wakes", "steps", "acceptance"):
        assert by_chunk[1][name] - by_chunk[0][name] < 16 * 2 ** 10, by_chunk


def test_compensated_step_batch_matches_the_scalar_steps():
    led = StepSizeLedger(numerator=7.0, mu=0.3, horizon=40, k0=5)
    rng = np.random.default_rng(4)
    slots = np.arange(40)[:, None]
    last = np.minimum(rng.integers(-1, 40, (40, 6)), slots)
    last[:, 0] = -1
    want = np.array([[led.compensated_step(a, k) for a in row]
                     for k, row in zip(range(40), last)])
    out = np.empty((40, 6))
    assert led.compensated_step_batch(last, slots, out=out) is out
    assert np.array_equal(out, want)
    assert np.array_equal(led.compensated_step_batch(last, slots), want)
    assert np.array_equal(led.compensated_step_batch(last[7], 7), want[7])
