"""Directed communication topologies.

Node ids are 0-based internally and in file formats; rendered reports use
1-based labels. Arcs are ordered pairs (src, dst) kept in lexicographic
order, which fixes the arc indexing used by schedules and traces.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InvalidTopologyError

RANDOM_GRAPH_RETRY_CAP = 10_000


@dataclass(frozen=True)
class Topology:
    """A fixed directed graph.

    Attributes
    ----------
    n : int
        Number of nodes.
    arcs : tuple of (int, int)
        Directed arcs (src, dst), lexicographically sorted, no self-loops,
        no duplicates.
    src, dst : read-only int64 arrays
        Source and destination node of each arc, in arc order.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]
    _arc_index: dict[tuple[int, int], int] = field(init=False, repr=False,
                                                   compare=False)
    src: np.ndarray = field(init=False, repr=False, compare=False)
    dst: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise InvalidTopologyError(f"need at least one node, got n={self.n}")
        seen = set()
        for src, dst in self.arcs:
            if src == dst:
                raise InvalidTopologyError(f"self-loop at node {src}")
            if not (0 <= src < self.n and 0 <= dst < self.n):
                raise InvalidTopologyError(f"arc ({src}, {dst}) out of range")
            if (src, dst) in seen:
                raise InvalidTopologyError(f"duplicate arc ({src}, {dst})")
            seen.add((src, dst))
        arcs_sorted = tuple(sorted(self.arcs))
        object.__setattr__(self, "arcs", arcs_sorted)
        object.__setattr__(self, "_arc_index",
                           {a: i for i, a in enumerate(arcs_sorted)})
        # Per-arc endpoint arrays in arc order, shared read-only by callers.
        ends = np.array(arcs_sorted, dtype=np.int64).reshape(-1, 2).T.copy()
        ends.setflags(write=False)
        object.__setattr__(self, "src", ends[0])
        object.__setattr__(self, "dst", ends[1])

    @property
    def m(self) -> int:
        return len(self.arcs)

    def arc_index(self, src: int, dst: int) -> int:
        return self._arc_index[(src, dst)]

    def out_degree(self) -> np.ndarray:
        d = np.zeros(self.n, dtype=np.int64)
        for src, _ in self.arcs:
            d[src] += 1
        return d

    def in_degree(self) -> np.ndarray:
        d = np.zeros(self.n, dtype=np.int64)
        for _, dst in self.arcs:
            d[dst] += 1
        return d

    @staticmethod
    def singleton() -> "Topology":
        """Degenerate one-node network (no arcs); used for baselines/tests."""
        return Topology(1, ())


def build_cycle(n: int, bidirectional: bool = False) -> Topology:
    """Unidirectional cycle 0 -> 1 -> ... -> n-1 -> 0, optionally both ways."""
    if n < 2:
        raise InvalidTopologyError(f"cycle needs n >= 2, got {n}")
    arcs = {(i, (i + 1) % n) for i in range(n)}
    if bidirectional:
        arcs |= {((i + 1) % n, i) for i in range(n)}
    return Topology(n, tuple(sorted(arcs)))


def is_strongly_connected(topology: Topology) -> bool:
    """Reachability of every node from node 0, forward and in the transpose."""
    if topology.n == 1:
        return True
    fwd: list[list[int]] = [[] for _ in range(topology.n)]
    rev: list[list[int]] = [[] for _ in range(topology.n)]
    for src, dst in topology.arcs:
        fwd[src].append(dst)
        rev[dst].append(src)

    def full_reach(adj: list[list[int]]) -> bool:
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return len(seen) == topology.n

    return full_reach(fwd) and full_reach(rev)


def build_random_strongly_connected(n: int, p: float,
                                    rng: np.random.Generator) -> Topology:
    """Directed Erdos-Renyi draws, resampled whole until strongly connected.

    Each ordered pair is included independently with probability p. Rejected
    graphs are discarded entirely (no incremental repair, which would bias
    the distribution). Gives up after RANDOM_GRAPH_RETRY_CAP attempts.
    """
    if n < 2:
        raise InvalidTopologyError(f"random graph needs n >= 2, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"arc probability {p} outside [0, 1]")
    for _ in range(RANDOM_GRAPH_RETRY_CAP):
        mask = rng.random((n, n)) < p
        np.fill_diagonal(mask, False)
        arcs = tuple((int(i), int(j)) for i, j in np.argwhere(mask))
        topo = Topology(n, arcs)
        if is_strongly_connected(topo):
            return topo
    raise ConfigurationError(
        f"no strongly connected graph found in {RANDOM_GRAPH_RETRY_CAP} "
        f"attempts (n={n}, p={p})")


def write_arc_list(topology: Topology, path: str | Path) -> None:
    """Serialize as a text arc list: first line n, then one 'i j' per line."""
    buf = io.StringIO()
    buf.write(f"{topology.n}\n")
    for src, dst in topology.arcs:
        buf.write(f"{src} {dst}\n")
    Path(path).write_text(buf.getvalue())


def read_arc_list(path: str | Path) -> Topology:
    lines = Path(path).read_text().split()
    if not lines:
        raise ConfigurationError(f"empty topology file: {path}")
    n = int(lines[0])
    rest = lines[1:]
    if len(rest) % 2:
        raise ConfigurationError(f"odd token count in topology file: {path}")
    arcs = tuple((int(rest[2 * i]), int(rest[2 * i + 1]))
                 for i in range(len(rest) // 2))
    return Topology(n, arcs)


def node_label(node: int) -> str:
    """1-based node label for rendered reports."""
    return str(node + 1)


def arc_label(src: int, dst: int) -> str:
    """1-based arc label for rendered reports."""
    return f"{src + 1}->{dst + 1}"
