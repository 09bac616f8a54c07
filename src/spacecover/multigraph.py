"""Multigraphs with loops and parallel edges, plus the structural helpers the solvers need."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .gf2 import Gf2Matrix

__all__ = [
    "MultiGraph",
    "EdgeSeparation",
    "UNBREAKABLE",
    "incidence_matrix",
    "signed_components",
    "connected_components",
    "is_connected",
    "count_simple_cycles",
    "spanning_forest",
    "min_cut",
    "good_edge_separation",
]

CYCLE_COUNT_EDGE_CAP = 16
SEPARATION_EXACT_VERTEX_CAP = 20


class MultiGraph:
    """An undirected multigraph on vertices 0..n-1 with stable edge identifiers.

    Loops and parallel edges are allowed.  Removing an edge never renumbers
    the surviving edges.
    """

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):  # noqa: D107
        if n < 0:
            raise ValueError("negative vertex count")
        self.n = n
        self._edges: Dict[int, Tuple[int, int]] = {}
        self._next_id = 0
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int) -> int:
        """Add an edge and return its stable identifier."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("endpoint out of range: (%d, %d)" % (u, v))
        eid = self._next_id
        self._edges[eid] = (u, v)
        self._next_id += 1
        return eid

    def remove_edge(self, eid: int) -> None:
        del self._edges[eid]

    def has_edge(self, eid: int) -> bool:
        return eid in self._edges

    def endpoints(self, eid: int) -> Tuple[int, int]:
        return self._edges[eid]

    def edge_ids(self) -> List[int]:
        return sorted(self._edges)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def edges(self) -> List[Tuple[int, Tuple[int, int]]]:
        return [(eid, self._edges[eid]) for eid in self.edge_ids()]

    def is_loop(self, eid: int) -> bool:
        u, v = self._edges[eid]
        return u == v

    def copy(self) -> "MultiGraph":
        g = MultiGraph(self.n)
        g._edges = dict(self._edges)
        g._next_id = self._next_id
        return g

    def without_edges(self, remove: Iterable[int]) -> "MultiGraph":
        """A copy with the given edge ids removed (ids of survivors unchanged)."""
        g = self.copy()
        for eid in set(remove):
            if eid in g._edges:
                g.remove_edge(eid)
        return g

    def adjacency(self) -> Dict[int, List[Tuple[int, int]]]:
        """vertex -> list of (neighbor, edge id); a loop appears once."""
        adj: Dict[int, List[Tuple[int, int]]] = {v: [] for v in range(self.n)}
        for eid, (u, v) in self._edges.items():
            adj[u].append((v, eid))
            if u != v:
                adj[v].append((u, eid))
        return adj

    def __repr__(self) -> str:
        return "MultiGraph(n=%d, m=%d)" % (self.n, self.num_edges)


@dataclass
class EdgeSeparation:
    """A 2-partition (X, Y) of the vertices with its crossing edge ids."""

    x: FrozenSet[int]
    y: FrozenSet[int]
    cross: Tuple[int, ...]


UNBREAKABLE = "unbreakable"


def incidence_matrix(g: MultiGraph) -> Gf2Matrix:
    """n x m incidence matrix over GF(2); columns follow sorted edge-id order.

    A loop yields a zero column (its endpoint appears twice; 1+1=0).
    """
    eids = g.edge_ids()
    row_bits = [0] * g.n
    for j, eid in enumerate(eids):
        u, v = g.endpoints(eid)
        if u != v:
            row_bits[u] |= 1 << j
            row_bits[v] |= 1 << j
    return Gf2Matrix(g.n, len(eids), row_bits)


def signed_components(vertices: Iterable[int], edges: Iterable[Tuple[int, int, int]]
                      ) -> Optional[List[Dict[int, int]]]:
    """Components of (vertices, edges) as vertex -> side maps, or None.

    An edge (u, v, parity) asks side[u] ^ side[v] == parity; edges with an
    endpoint outside ``vertices`` are ignored.  Returns None when some cycle
    has odd total parity.  Components come in order of their least vertex,
    which is on side 0.
    """
    adj: Dict[int, List[Tuple[int, int]]] = {v: [] for v in vertices}
    for u, v, parity in edges:
        if u in adj and v in adj:
            adj[u].append((v, parity))
            if u != v:
                adj[v].append((u, parity))
    comps: List[Dict[int, int]] = []
    done: Set[int] = set()
    for start in sorted(adj):
        if start in done:
            continue
        side = {start: 0}
        stack = [start]
        while stack:
            v = stack.pop()
            for w, parity in adj[v]:
                want = side[v] ^ parity
                if w not in side:
                    side[w] = want
                    stack.append(w)
                elif side[w] != want:
                    return None
        done.update(side)
        comps.append(side)
    return comps


def connected_components(g: MultiGraph, vertices: Optional[Iterable[int]] = None) -> List[Set[int]]:
    """Connected components as vertex sets; isolated vertices are singletons."""
    todo = range(g.n) if vertices is None else vertices
    comps = signed_components(todo, ((u, v, 0) for u, v in g._edges.values()))
    return [set(side) for side in comps]


def is_connected(g: MultiGraph) -> bool:
    return len(connected_components(g)) <= 1


def count_simple_cycles(g: MultiGraph) -> int:
    """Number of simple cycles; a loop and a pair of parallel edges each count as one.

    A set of edges forms a simple cycle iff it is connected and every incident
    vertex has degree exactly 2 (a loop contributes 2 to its vertex).
    """
    eids = g.edge_ids()
    if len(eids) > CYCLE_COUNT_EDGE_CAP:
        raise ValueError("beyond supported range: edge count %d exceeds CYCLE_COUNT_EDGE_CAP = %d"
                         % (len(eids), CYCLE_COUNT_EDGE_CAP))
    count = 0
    for size in range(1, len(eids) + 1):
        for subset in itertools.combinations(eids, size):
            deg: Dict[int, int] = {}
            for eid in subset:
                u, v = g.endpoints(eid)
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            if any(d != 2 for d in deg.values()):
                continue
            if len(signed_components(deg, ((*g.endpoints(eid), 0) for eid in subset))) == 1:
                count += 1
    return count


def spanning_forest(g: MultiGraph) -> Set[int]:
    """Greedy maximal acyclic edge set, lowest edge id first."""
    parent = list(range(g.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    forest: Set[int] = set()
    for eid in g.edge_ids():
        u, v = g.endpoints(eid)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            forest.add(eid)
    return forest


def min_cut(g: MultiGraph, edges: Iterable[int], sources: Set[int], sinks: Set[int],
            limit: int) -> Tuple[int, Set[int]]:
    """Min edge cut separating sources from sinks in (V, edges).

    Returns (cut value, source-side vertex set X).  Unit-capacity augmenting
    paths: each breadth-first search starts from all sources at once and stops
    at the first sink.  Each non-loop edge carries one unit either way; loops
    carry none.  X is what the last search reaches, the least source side of
    a minimum cut.  Augmenting stops once the flow reaches ``limit``: the
    result is then (limit, set()).
    """
    adj: Dict[int, List[Tuple[int, int, int]]] = {}
    flow: Dict[int, int] = {}  # eid -> +1 carrying one unit from u to v, -1 from v to u, or 0
    for eid in edges:
        u, v = g.endpoints(eid)
        if u != v:
            adj.setdefault(u, []).append((v, eid, 1))
            adj.setdefault(v, []).append((u, eid, -1))
            flow[eid] = 0
    for value in range(limit):
        parent: Dict[int, Optional[Tuple[int, int, int]]] = dict.fromkeys(sources)
        queue = list(sources)
        for v in queue:
            if v in sinks:
                break
            for w, eid, sign in adj.get(v, ()):
                if w not in parent and flow[eid] != sign:
                    parent[w] = (v, eid, sign)
                    queue.append(w)
        else:
            return value, set(parent)
        while parent[v] is not None:
            v, eid, sign = parent[v]
            flow[eid] += sign
    return limit, set()


def _side_ok(edges: List[Tuple[int, int, int]], side: Set[int]) -> bool:
    return len(signed_components(side, edges)) == 1


def good_edge_separation(g: MultiGraph, q: int, p: int):
    """A (q,p)-good edge separation of a connected g, or UNBREAKABLE.

    Both sides must be connected and larger than q, with at most p crossing
    edges.  In order: g must be connected; n <= 2q is unbreakable; so is a
    graph where every 0-v min cut exceeds p, since each separation is a 0-v
    cut for some v.  Otherwise an exact subset search returns the first
    separating vertex mask; graphs with more than SEPARATION_EXACT_VERTEX_CAP
    vertices that reach it are refused with ValueError.
    """
    if not is_connected(g):
        raise ValueError("good_edge_separation requires a connected graph")
    n = g.n
    if n <= 2 * q:
        return UNBREAKABLE
    if all(min_cut(g, g.edge_ids(), {0}, {v}, p + 1)[0] > p for v in range(1, n)):
        return UNBREAKABLE
    if n > SEPARATION_EXACT_VERTEX_CAP:
        raise ValueError("beyond supported range: vertex count %d exceeds "
                         "SEPARATION_EXACT_VERTEX_CAP = %d" % (n, SEPARATION_EXACT_VERTEX_CAP))
    edges = g.edges()
    unsigned = [(u, v, 0) for _, (u, v) in edges]
    everything = set(range(n))
    # vertex 0 on the X side w.l.o.g.; enumerate the rest.  The crossing count
    # is the cheap test and rejects most masks, so it runs first.
    for mask in range(1 << (n - 1)):
        side = {0} | {v for v in range(1, n) if (mask >> (v - 1)) & 1}
        other = everything - side
        if len(side) <= q or len(other) <= q:
            continue
        cross = tuple(eid for eid, (u, v) in edges if (u in side) != (v in side))
        if len(cross) <= p and _side_ok(unsigned, side) and _side_ok(unsigned, other):
            return EdgeSeparation(frozenset(side), frozenset(other), cross)
    return UNBREAKABLE
