"""Keyed stream derivation and the uniform transforms."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pushsim.rng import Role, stream, uniform_box, uniform_delay


def test_streams_are_deterministic():
    a = stream(7, 3, Role.WAKE, 2).random(8)
    b = stream(7, 3, Role.WAKE, 2).random(8)
    assert np.array_equal(a, b)


def test_streams_differ_across_key_components():
    base = stream(7, 3, Role.WAKE, 2).random(8)
    for other in [stream(8, 3, Role.WAKE, 2), stream(7, 4, Role.WAKE, 2),
                  stream(7, 3, Role.SEND_LOSS, 2), stream(7, 3, Role.WAKE, 3)]:
        assert not np.array_equal(base, other.random(8))


def test_uniform_box_range_and_symmetry():
    u = np.linspace(0.0, 1.0, 101, endpoint=False)
    x = uniform_box(u, 2.5)
    assert x.min() == -2.5
    assert x.max() < 2.5
    assert abs(x.mean()) < 0.03
    assert np.allclose(uniform_box(np.array([0.5]), 2.5), 0.0)


@given(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 9))
def test_uniform_delay_in_range(u, max_delay):
    d = uniform_delay(np.array(u), max_delay)
    assert 1 <= int(d) <= max_delay


def test_uniform_delay_partitions_evenly():
    # delays {1,2,3} each claim exactly one third of the unit interval
    u = np.array([0.0, 0.33, 0.34, 0.66, 0.67, 0.999])
    assert list(uniform_delay(u, 3)) == [1, 1, 2, 2, 3, 3]


@settings(max_examples=30)
@given(st.integers(0, 2 ** 32), st.integers(0, 100))
def test_role_streams_never_collide(master, run):
    # same master seed, different roles: distinct output
    a = stream(master, run, Role.WAKE, 0).random(4)
    b = stream(master, run, Role.GRAD_NOISE, 0).random(4)
    assert not np.array_equal(a, b)
