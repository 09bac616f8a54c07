"""Problem instances: a multigraph, a perturbation matrix, terminal edges, and a budget."""

from __future__ import annotations

import random
from typing import Iterable, List, Optional

from .gf2 import Gf2Matrix, rank
from .multigraph import MultiGraph, incidence_matrix

__all__ = ["SpaceCoverInstance", "PrimalInstance", "DualInstance", "random_instance"]

LOOP_PROB = 0.1  # chance that a random edge is a loop


class SpaceCoverInstance:
    """Shared state of both problem modes: (G, P, T, k) with A = I(G) + P.

    The edge ids of ``graph`` are 0..m-1, and edge j is column j of P and of A.
    """

    mode = "base"

    def __init__(self, graph: MultiGraph, p: Gf2Matrix, terminals: Iterable[int], k: int):
        m = graph.num_edges
        if graph.edge_ids() != list(range(m)):
            raise ValueError("edge ids are not 0..%d" % (m - 1))
        if p.rows != graph.n or p.cols != m:
            raise ValueError("perturbation shape %dx%d does not match graph %dx%d"
                             % (p.rows, p.cols, graph.n, m))
        self.graph = graph
        self.p = p
        self.terminals = tuple(sorted(set(terminals)))
        for eid in self.terminals:
            if not graph.has_edge(eid):
                raise ValueError("terminal %d is not an edge" % eid)
        if k < 0:
            raise ValueError("negative budget")
        self.k = k
        self._a: Optional[Gf2Matrix] = None

    @property
    def a_matrix(self) -> Gf2Matrix:
        if self._a is None:
            self._a = incidence_matrix(self.graph) ^ self.p
        return self._a

    @property
    def r(self) -> int:
        return rank(self.p)

    def a_column(self, eid: int) -> int:
        return self.a_matrix.column(eid)

    def nonterminal_edges(self) -> List[int]:
        tset = set(self.terminals)
        return [eid for eid in self.graph.edge_ids() if eid not in tset]

    def restrict(self, keep_edges: Iterable[int],
                 terminals: Optional[Iterable[int]] = None) -> "SpaceCoverInstance":
        """New instance on the given edges, its edge j the j-th smallest of them.

        Edge j keeps the endpoints and the P column of that edge; the
        terminals (those of this instance by default) are the kept ones.
        """
        keep = sorted(set(keep_edges))
        graph = MultiGraph(self.graph.n, [self.graph.endpoints(e) for e in keep])
        p = Gf2Matrix(self.p.rows, len(keep),
                      [sum((row >> e & 1) << j for j, e in enumerate(keep))
                       for row in self.p.row_bits])
        new_id = {e: j for j, e in enumerate(keep)}
        terms = [new_id[e] for e in (self.terminals if terminals is None else terminals)
                 if e in new_id]
        return type(self)(graph, p, terms, self.k)

    def __repr__(self) -> str:
        return "%s(n=%d, m=%d, |T|=%d, k=%d)" % (
            type(self).__name__, self.graph.n, self.graph.num_edges,
            len(self.terminals), self.k)


class PrimalInstance(SpaceCoverInstance):
    """Cover terminal columns by the span of at most k non-terminal columns of A."""

    mode = "primal"


class DualInstance(SpaceCoverInstance):
    """Cover terminal columns in the dual of the matroid represented by A."""

    mode = "dual"


def random_instance(mode: str, n: int, m: int, r: int, num_terminals: int, k: int,
                    rng: random.Random) -> SpaceCoverInstance:
    """Random connected-ish multigraph with P a sum of r random rank-1 matrices."""
    if min(n, m, r, num_terminals) < 0 or (m > 0 and n == 0):
        raise ValueError("bad size n = %d, m = %d, r = %d, terminals = %d: none may be "
                         "negative, and edges need a vertex" % (n, m, r, num_terminals))
    g = MultiGraph(n)
    for _ in range(m):
        if n == 1 or rng.random() < LOOP_PROB:
            v = rng.randrange(n)
            g.add_edge(v, v)
        else:
            u, v = rng.sample(range(n), 2)
            g.add_edge(u, v)
    row_bits = [0] * n
    for _ in range(r):
        col_pat = rng.getrandbits(n)
        row_pat = rng.getrandbits(m)
        for i in range(n):
            if (col_pat >> i) & 1:
                row_bits[i] ^= row_pat
    p = Gf2Matrix(n, m, row_bits)
    eids = g.edge_ids()
    terms = rng.sample(eids, min(num_terminals, len(eids)))
    cls = PrimalInstance if mode == "primal" else DualInstance
    return cls(g, p, terms, k)
