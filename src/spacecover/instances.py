"""Problem instances: a multigraph, a perturbation matrix, terminal edges, and a budget."""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional

from .gf2 import Gf2Matrix, rank
from .multigraph import MultiGraph, incidence_matrix

__all__ = ["SpaceCoverInstance", "PrimalInstance", "DualInstance", "random_instance"]

LOOP_PROB = 0.1  # chance that a random edge is a loop


class SpaceCoverInstance:
    """Shared state of both problem modes: (G, P, T, k) with A = I(G) + P.

    The columns of ``p`` follow the sorted edge-id order of ``graph`` at
    construction time; ``col_of`` maps edge ids to column indices.
    """

    mode = "base"

    def __init__(self, graph: MultiGraph, p: Gf2Matrix, terminals: Iterable[int], k: int):
        eids = graph.edge_ids()
        if p.rows != graph.n or p.cols != len(eids):
            raise ValueError("perturbation shape %dx%d does not match graph %dx%d"
                             % (p.rows, p.cols, graph.n, len(eids)))
        self.graph = graph
        self.p = p
        self.terminals = tuple(sorted(set(terminals)))
        for eid in self.terminals:
            if not graph.has_edge(eid):
                raise ValueError("terminal %d is not an edge" % eid)
        if k < 0:
            raise ValueError("negative budget")
        self.k = k
        self.col_of: Dict[int, int] = {eid: j for j, eid in enumerate(eids)}
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
        return self.a_matrix.columns()[self.col_of[eid]]

    def nonterminal_edges(self) -> List[int]:
        tset = set(self.terminals)
        return [eid for eid in self.graph.edge_ids() if eid not in tset]

    def restrict(self, keep_edges: Iterable[int],
                 terminals: Optional[Iterable[int]] = None) -> "SpaceCoverInstance":
        """New instance keeping only the given edges (and their P and A columns)."""
        keep = set(keep_edges)
        graph = self.graph.without_edges(set(self.graph.edge_ids()) - keep)
        kept = [self.col_of[eid] for eid in graph.edge_ids()]
        p_cols, a_cols = self.p.columns(), self.a_matrix.columns()
        p = Gf2Matrix.from_columns(self.p.rows, [p_cols[j] for j in kept])
        terms = [e for e in (self.terminals if terminals is None else terminals) if e in keep]
        out = type(self)(graph, p, terms, self.k)
        # A's kept columns are the restricted A's columns
        out._a = Gf2Matrix.from_columns(self.graph.n, [a_cols[j] for j in kept])
        return out

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
