import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import complete_graph, path_graph
from spacecover.gf2 import rank
from spacecover.multigraph import (UNBREAKABLE, EdgeSeparation, MultiGraph,
                                   connected_components, count_simple_cycles,
                                   good_edge_separation, incidence_matrix, is_connected,
                                   min_cut, signed_components, spanning_forest)


def test_stable_edge_ids():
    g = MultiGraph(3)
    e0 = g.add_edge(0, 1)
    e1 = g.add_edge(1, 2)
    e2 = g.add_edge(0, 2)
    g.remove_edge(e1)
    assert g.edge_ids() == [e0, e2]
    e3 = g.add_edge(2, 2)
    assert e3 not in (e0, e1, e2)
    assert g.is_loop(e3)


def test_incidence_matrix_column_of_a_loop_is_zero():
    g = MultiGraph(2)
    g.add_edge(0, 1)
    g.add_edge(1, 1)
    m = incidence_matrix(g)
    assert m.column(0) == 0b11
    assert m.column(1) == 0


def test_connected_components():
    g = MultiGraph(5)
    g.add_edge(0, 1)
    g.add_edge(3, 4)
    comps = connected_components(g)
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2], [3, 4]]
    assert not is_connected(g)


def test_signed_components():
    assert signed_components([0], [(0, 0, 1)]) is None
    assert signed_components([0], [(0, 0, 0)]) == [{0: 0}]
    assert signed_components([0, 1], [(0, 1, 0), (0, 1, 1)]) is None
    # the odd triangle through vertex 3 lies outside the vertex subset
    edges = [(4, 2, 1), (2, 0, 0), (1, 3, 1), (3, 4, 1), (4, 1, 1), (5, 5, 0)]
    assert signed_components([4, 2, 0, 5], edges) == [{0: 0, 2: 0, 4: 1}, {5: 0}]
    assert signed_components(range(6), edges) is None
    comps = signed_components([5, 3, 1, 4], [(5, 3, 1), (4, 1, 1)])
    assert comps == [{1: 0, 4: 1}, {3: 0, 5: 1}]
    assert [min(side) for side in comps] == [1, 3]


def test_count_simple_cycles_frozen():
    assert count_simple_cycles(complete_graph(4)) == 7
    theta = MultiGraph(2, [(0, 1), (0, 1), (0, 1)])
    assert count_simple_cycles(theta) == 3
    loop = MultiGraph(1, [(0, 0)])
    assert count_simple_cycles(loop) == 1
    pair = MultiGraph(2, [(0, 1), (0, 1)])
    assert count_simple_cycles(pair) == 1
    assert count_simple_cycles(path_graph(5)) == 0


def test_count_simple_cycles_cap():
    g = MultiGraph(2, [(0, 1)] * 17)
    with pytest.raises(ValueError):
        count_simple_cycles(g)


def test_spanning_forest_is_maximal_acyclic():
    g = complete_graph(5)
    g.add_edge(0, 0)
    forest = spanning_forest(g)
    assert len(forest) == 4
    sub = g.without_edges(set(g.edge_ids()) - forest)
    assert count_simple_cycles(sub) == 0
    assert is_connected(sub)


def test_good_edge_separation_path():
    sep = good_edge_separation(path_graph(10), q=2, p=2)
    assert sep != UNBREAKABLE
    assert len(sep.x) > 2 and len(sep.y) > 2
    assert len(sep.cross) <= 2
    assert sep.x | sep.y == frozenset(range(10))
    assert not sep.x & sep.y


def test_good_edge_separation_clique_unbreakable():
    assert good_edge_separation(complete_graph(7), q=2, p=2) == UNBREAKABLE


def test_good_edge_separation_refuses_past_exact_cap():
    with pytest.raises(ValueError, match="beyond supported range.*SEPARATION_EXACT_VERTEX_CAP"):
        good_edge_separation(path_graph(21), q=2, p=2)


def test_good_edge_separation_clique_past_exact_cap_unbreakable():
    # every 0-v cut of K21 has 20 edges, so no mask search is needed
    assert good_edge_separation(complete_graph(21), 2, 2) == UNBREAKABLE


def mask_search_separation(g, q, p):
    """Reference: the first (q,p)-good vertex mask, by exhaustive search."""
    n = g.n
    if n <= 2 * q:
        return UNBREAKABLE
    edges = g.edges()
    for mask in range(1 << (n - 1)):
        side = {0} | {v for v in range(1, n) if (mask >> (v - 1)) & 1}
        other = set(range(n)) - side
        if len(side) <= q or len(other) <= q:
            continue
        cross = tuple(eid for eid, (u, v) in edges if (u in side) != (v in side))
        if len(cross) <= p and all(len(connected_components(g, part)) == 1
                                   for part in (side, other)):
            return EdgeSeparation(frozenset(side), frozenset(other), cross)
    return UNBREAKABLE


def random_connected_multigraph(rng, n):
    """A random spanning tree plus random extra edges, loops and parallels."""
    g = MultiGraph(n)
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v)
    for _ in range(rng.randrange(2 * n)):
        u = rng.randrange(n)
        g.add_edge(u, u if rng.random() < 0.1 else rng.randrange(n))
    return g


def test_good_edge_separation_matches_mask_search():
    rng = random.Random(1201)
    unbreakable = 0
    for _ in range(400):
        g = random_connected_multigraph(rng, rng.randint(3, 12))
        q, p = rng.choice((1, 2)), rng.randint(0, 4)
        got = good_edge_separation(g, q, p)
        assert got == mask_search_separation(g, q, p), (g.edges(), q, p)
        unbreakable += got == UNBREAKABLE
    assert unbreakable >= 50 and 400 - unbreakable >= 50


def test_flow_limit_caps_only_at_the_limit():
    bundle = MultiGraph(2, [(0, 1)] * 3)
    assert min_cut(bundle, bundle.edge_ids(), {0}, {1}, 2) == (2, set())
    rng = random.Random(1202)
    capped = 0
    for _ in range(300):
        n = rng.randint(2, 9)
        g = random_connected_multigraph(rng, n)
        edges = [eid for eid in g.edge_ids() if rng.random() < 0.8]
        verts = rng.sample(range(n), rng.randint(2, n))
        cut = rng.randint(1, len(verts) - 1)
        sources, sinks = set(verts[:cut]), set(verts[cut:])
        full = min_cut(g, edges, sources, sinks, g.num_edges + 1)
        for limit in range(1, g.num_edges + 2):
            value, x = min_cut(g, edges, sources, sinks, limit)
            if value < limit:
                assert (value, x) == full
            else:
                assert full[0] >= limit and (value, x) == (limit, set())
                capped += 1
    assert capped > 0


def min_cut_reference(g, edges, sources, sinks):
    """Reference: the least count of edges crossing X over every X with
    sources <= X <= V - sinks, and the intersection of every X attaining it."""
    free = sorted(set(range(g.n)) - sources - sinks)
    best, least = None, None
    for mask in range(1 << len(free)):
        x = sources | {v for i, v in enumerate(free) if mask >> i & 1}
        count = sum((u in x) != (v in x) for u, v in map(g.endpoints, edges))
        if best is None or count < best:
            best, least = count, x
        elif count == best:
            least &= x
    return best, least


def test_min_cut_is_the_least_minimum_cut():
    # 0-1-2-3 is the only shortest path from 0 to 3, and the first search takes it.
    # Both edge-disjoint paths, 0-1-4-5-3 and 0-6-7-2-3, avoid the edge 1-2, so the
    # second search must cancel the first one's unit on it
    reroute = MultiGraph(8, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (5, 3), (0, 6), (6, 7), (7, 2)])
    cases = [(reroute, reroute.edge_ids(), {0}, {3})]
    rng = random.Random(1203)
    for _ in range(600):
        n = rng.randint(1, 8)
        g = MultiGraph(n)
        for _ in range(rng.randrange(2 * n + 1)):
            u = rng.randrange(n)
            v = u if rng.random() < 0.15 else rng.randrange(n)
            for _ in range(rng.choice((1, 1, 2, 3))):
                g.add_edge(u, v)
        edges = [eid for eid in g.edge_ids() if rng.random() < 0.8]
        verts = rng.sample(range(n), n)
        a = rng.randint(0, n)
        b = rng.randint(a, n)
        cases.append((g, edges, set(verts[:a]), set(verts[a:b])))
    seen = {"loop": 0, "parallel": 0, "no sources": 0, "no sinks": 0}
    for g, edges, sources, sinks in cases:
        assert min_cut(g, edges, sources, sinks, g.num_edges + 1) == \
            min_cut_reference(g, edges, sources, sinks), (g.edges(), edges, sources, sinks)
        pairs = [g.endpoints(eid) for eid in edges]
        seen["loop"] += any(u == v for u, v in pairs)
        seen["parallel"] += len(set(pairs)) < len(pairs)
        seen["no sources"] += not sources
        seen["no sinks"] += not sinks
    assert min(seen.values()) >= 100, seen


def test_good_edge_separation_requires_connected():
    g = MultiGraph(6)
    g.add_edge(0, 1)
    with pytest.raises(ValueError):
        good_edge_separation(g, 1, 1)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 7))
    m = draw(st.integers(0, 10))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    g = MultiGraph(n)
    for _ in range(m):
        g.add_edge(rng.randrange(n), rng.randrange(n))
    return g


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_incidence_rank_is_n_minus_components(g):
    loopless_components = len(connected_components(g))
    assert rank(incidence_matrix(g)) == g.n - loopless_components


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_cycle_count_at_least_cycle_space_dim(g):
    nonloop = [e for e in g.edge_ids() if not g.is_loop(e)]
    if g.num_edges <= 12:
        dim = g.num_edges - rank(incidence_matrix(g))
        assert count_simple_cycles(g) >= dim
