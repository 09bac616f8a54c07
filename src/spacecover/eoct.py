"""Exact edge odd cycle transversal (edge bipartization) via iterative compression.

Edges are signed: edge e asks side[u] ^ side[v] == parity[e], and plain edge
bipartization is the case where every parity is 1.  Iterative compression
works unchanged on signed edges, because flipping a vertex set X relative to
a valid side map breaks exactly the kept edges that cross X.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from .multigraph import MultiGraph, min_cut, signed_components

__all__ = ["solve", "minimize"]

EOCT_K_CAP = 12


def _signed(g: MultiGraph, edges: Iterable[int],
            parity: Mapping[int, int]) -> List[Tuple[int, int, int]]:
    """The given edges as (u, v, parity) triples for signed_components."""
    return [(*g.endpoints(eid), parity[eid]) for eid in edges]


def _compress(g: MultiGraph, parity: Mapping[int, int], prefix: Set[int],
              s_cur: List[int], budget: int) -> Optional[List[int]]:
    """Find a bipartization set of size <= budget for the prefix graph, or None."""
    rest = prefix - set(s_cur)
    c0 = {v: c for side in signed_components(range(g.n), _signed(g, rest, parity))
          for v, c in side.items()}
    endpoints: List[int] = sorted({v for eid in s_cur for v in g.endpoints(eid)})
    for assign_bits in range(1 << len(endpoints)):
        a = {v: (assign_bits >> i) & 1 for i, v in enumerate(endpoints)}
        mono = [eid for eid in s_cur
                if a[g.endpoints(eid)[0]] ^ a[g.endpoints(eid)[1]] != parity[eid]]
        if len(mono) > budget:
            continue
        # flip set X relative to c0; forced on the assigned endpoints
        sources = {v for v in endpoints if a[v] != c0[v]}
        sinks = {v for v in endpoints if a[v] == c0[v]}
        cut, x = min_cut(g, rest, sources, sinks, budget - len(mono) + 1)
        if len(mono) + cut > budget:
            continue
        crossing = [eid for eid in rest
                    if (g.endpoints(eid)[0] in x) != (g.endpoints(eid)[1] in x)]
        new_s = sorted(mono + crossing)
        if len(new_s) <= budget and \
                signed_components(range(g.n), _signed(g, prefix - set(new_s), parity)) is not None:
            return new_s
    return None


def solve(g: MultiGraph, k: int, parity: Optional[Mapping[int, int]] = None
          ) -> Optional[Tuple[FrozenSet[int], Tuple[FrozenSet[int], FrozenSet[int]]]]:
    """Edge set S with |S| <= k such that sides exist meeting every edge outside S,
    plus those sides as (side 0, side 1).

    ``parity`` maps each edge id to its required side difference; without it
    every edge asks for different sides, so g - S is bipartite.
    """
    if k > EOCT_K_CAP:
        raise ValueError("beyond supported range: budget %d exceeds EOCT_K_CAP = %d"
                         % (k, EOCT_K_CAP))
    if parity is None:
        parity = dict.fromkeys(g.edge_ids(), 1)
    # a loop asking for different sides can never be met
    loops = [eid for eid in g.edge_ids() if g.is_loop(eid) and parity[eid]]
    if len(loops) > k:
        return None
    budget = k - len(loops)
    others = [eid for eid in g.edge_ids() if not (g.is_loop(eid) and parity[eid])]
    s_cur: List[int] = []
    prefix: Set[int] = set()
    color = dict.fromkeys(range(g.n), 0)
    for eid in others:
        prefix.add(eid)
        u, v = g.endpoints(eid)
        if color[u] ^ color[v] == parity[eid]:
            continue
        s_cur.append(eid)
        if len(s_cur) > budget:
            compressed = _compress(g, parity, prefix, s_cur, budget)
            if compressed is None:
                return None
            s_cur = compressed
        color = {w: c for side in signed_components(range(g.n),
                                                    _signed(g, prefix - set(s_cur), parity))
                 for w, c in side.items()}
    s_all = frozenset(loops) | frozenset(s_cur)
    final = signed_components(range(g.n), _signed(g, set(others) - set(s_cur), parity))
    a = frozenset(v for side in final for v, c in side.items() if c == 0)
    return s_all, (a, frozenset(range(g.n)) - a)


def minimize(g: MultiGraph) -> int:
    """Minimum edge bipartization size, by increasing-budget calls to solve.

    Raises ValueError when the minimum exceeds EOCT_K_CAP.
    """
    for k in range(0, min(g.num_edges, EOCT_K_CAP) + 1):
        if solve(g, k) is not None:
            return k
    raise ValueError("beyond supported range: minimum edge bipartization exceeds EOCT_K_CAP = %d"
                     % EOCT_K_CAP)
