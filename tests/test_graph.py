"""Topology construction and connectivity checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pushsim.errors import InvalidTopologyError
from pushsim.graph import (Topology, arc_label, build_cycle,
                           build_random_strongly_connected,
                           is_strongly_connected, node_label, read_arc_list,
                           write_arc_list)
from pushsim.rng import Role, stream


def test_unidirectional_cycle():
    topo = build_cycle(4)
    assert topo.arcs == ((0, 1), (1, 2), (2, 3), (3, 0))
    assert list(topo.out_degree()) == [1, 1, 1, 1]
    assert is_strongly_connected(topo)


def test_bidirectional_cycle():
    topo = build_cycle(3, bidirectional=True)
    assert topo.m == 6
    assert list(topo.out_degree()) == [2, 2, 2]
    assert list(topo.in_degree()) == [2, 2, 2]


def test_two_node_bidirectional_cycle_deduplicates():
    # forward and backward rings coincide at n=2
    topo = build_cycle(2, bidirectional=True)
    assert topo.arcs == ((0, 1), (1, 0))


def test_arcs_sorted_lexicographically():
    topo = Topology(3, ((2, 0), (0, 1), (1, 2), (0, 2)))
    assert topo.arcs == ((0, 1), (0, 2), (1, 2), (2, 0))
    assert topo.arc_index(0, 2) == 1


def test_arc_endpoint_arrays_are_read_only():
    topo = Topology(3, ((2, 0), (0, 1), (1, 2), (0, 2)))
    assert topo.src.tolist() == [a[0] for a in topo.arcs]
    assert topo.dst.tolist() == [a[1] for a in topo.arcs]
    for ends in (topo.src, topo.dst):
        assert ends.dtype == np.int64 and not ends.flags.writeable
        with pytest.raises(ValueError):
            ends[0] = 1
    assert Topology.singleton().src.shape == (0,)


def test_rejects_self_loops_duplicates_and_range():
    with pytest.raises(InvalidTopologyError):
        Topology(3, ((0, 0), (0, 1), (1, 2), (2, 0)))
    with pytest.raises(InvalidTopologyError):
        Topology(3, ((0, 1), (0, 1), (1, 2), (2, 0)))
    with pytest.raises(InvalidTopologyError):
        Topology(3, ((0, 1), (1, 3), (2, 0)))


def test_strong_connectivity_detects_sink():
    assert not is_strongly_connected(Topology(3, ((0, 1), (0, 2), (1, 2))))
    assert is_strongly_connected(Topology(3, ((0, 1), (1, 2), (2, 0))))


def test_singleton():
    topo = Topology.singleton()
    assert topo.n == 1 and topo.m == 0
    assert is_strongly_connected(topo)


@given(st.integers(2, 7), st.booleans())
def test_cycles_strongly_connected(n, bidirectional):
    assert is_strongly_connected(build_cycle(n, bidirectional))


def test_random_graph_deterministic_and_connected():
    a = build_random_strongly_connected(6, 0.5, stream(3, 0, Role.TOPOLOGY, 0))
    b = build_random_strongly_connected(6, 0.5, stream(3, 0, Role.TOPOLOGY, 0))
    assert a.arcs == b.arcs
    assert is_strongly_connected(a)
    c = build_random_strongly_connected(6, 0.5, stream(4, 0, Role.TOPOLOGY, 0))
    assert c.arcs != a.arcs


def test_arc_list_round_trip(tmp_path):
    topo = build_random_strongly_connected(5, 0.4,
                                           stream(9, 0, Role.TOPOLOGY, 0))
    path = tmp_path / "arcs.csv"
    write_arc_list(topo, path)
    assert read_arc_list(path).arcs == topo.arcs


def test_labels_are_one_based():
    assert node_label(3) == "4"
    assert arc_label(0, 2) == "1->3"
