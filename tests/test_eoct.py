import random

import pytest

from helpers import complete_graph, path_graph
from spacecover import eoct
from spacecover.multigraph import MultiGraph
from spacecover.oracle import eoct_bruteforce


def is_bipartite_without(g, removed):
    color = {}
    adj = {v: [] for v in range(g.n)}
    for eid, (u, v) in g.edges():
        if eid in removed:
            continue
        if u == v:
            return False
        adj[u].append(v)
        adj[v].append(u)
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def test_frozen_minimums():
    assert eoct.minimize(complete_graph(4)) == 2
    assert eoct.minimize(complete_graph(5)) == 4
    assert eoct.minimize(path_graph(6)) == 0
    triangle = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert eoct.minimize(triangle) == 1


def test_loops_are_forced():
    g = MultiGraph(2, [(0, 0), (1, 1), (0, 1)])
    assert eoct.solve(g, 1) is None
    res = eoct.solve(g, 2)
    assert res is not None
    s, (a, b) = res
    assert {e for e in s} == {0, 1}


def test_parallel_edges_count_individually():
    g = MultiGraph(2, [(0, 1), (0, 1), (0, 1)])
    # an odd theta: any bipartition leaves all three edges crossing, so 0 removals
    assert eoct.minimize(g) == 0
    g2 = MultiGraph(1, [(0, 0), (0, 0)])
    assert eoct.minimize(g2) == 2


def test_solution_and_bipartition_are_consistent():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(2, 7)
        g = MultiGraph(n)
        for _ in range(rng.randrange(0, 11)):
            g.add_edge(rng.randrange(n), rng.randrange(n))
        best = eoct_bruteforce(g, g.num_edges)
        k = len(best)
        assert eoct.minimize(g) == k
        res = eoct.solve(g, k)
        assert res is not None
        s, (a, b) = res
        assert len(s) <= k
        assert is_bipartite_without(g, set(s))
        assert a | b == frozenset(range(n)) and not a & b
        for eid, (u, v) in g.edges():
            if eid not in s:
                assert (u in a) != (v in a)
        if k > 0:
            assert eoct.solve(g, k - 1) is None


def signed_minimum(g, parity):
    """Fewest edges whose side difference is wrong, over all 2^n side maps."""
    best = None
    for mask in range(1 << g.n):
        broken = sum(1 for eid, (u, v) in g.edges()
                     if ((mask >> u) ^ (mask >> v)) & 1 != parity[eid])
        best = broken if best is None else min(best, broken)
    return best


def test_signed_edges_match_exhaustive_sides():
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randrange(1, 8)
        g = MultiGraph(n)
        parity = {}
        for _ in range(rng.randrange(0, 13)):
            u = rng.randrange(n)
            v = u if rng.random() < 0.15 else rng.randrange(n)
            for _ in range(rng.choice((1, 1, 2))):  # parallel copies share the parity
                parity[g.add_edge(u, v)] = rng.getrandbits(1)
        k = signed_minimum(g, parity)
        res = eoct.solve(g, k, parity)
        assert res is not None
        s, (a, b) = res
        assert len(s) <= k
        assert a | b == frozenset(range(n)) and not a & b
        for eid, (u, v) in g.edges():
            if eid not in s:
                assert ((u in b) != (v in b)) == parity[eid]
        if k > 0:
            assert eoct.solve(g, k - 1, parity) is None


def test_budget_cap_enforced():
    with pytest.raises(ValueError):
        eoct.solve(complete_graph(3), eoct.EOCT_K_CAP + 1)


def test_minimize_refuses_past_the_cap():
    # K8's minimum edge bipartization is 16 - 4 = 12, K9's is 36 - 20 = 16
    assert eoct.minimize(complete_graph(8)) == eoct.EOCT_K_CAP == 12
    with pytest.raises(ValueError, match="beyond supported range.*EOCT_K_CAP = 12"):
        eoct.minimize(complete_graph(9))
