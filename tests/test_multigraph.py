import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import complete_graph, path_graph
from spacecover import multigraph
from spacecover.gf2 import rank
from spacecover.multigraph import (UNBREAKABLE, EdgeSeparation, MultiGraph,
                                   connected_components, count_simple_cycles,
                                   good_edge_separation, incidence_matrix, is_connected,
                                   min_cut, neighbour_sets, signed_components,
                                   spanning_forest)


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


def test_good_edge_separation_refuses_past_exact_cap(monkeypatch):
    # a vertex of degree 1 skips the flows: the refusal comes before any
    calls = count_flows(monkeypatch)
    with pytest.raises(ValueError, match="beyond supported range.*SEPARATION_EXACT_VERTEX_CAP"):
        good_edge_separation(path_graph(21), q=2, p=2)
    assert not calls


def test_good_edge_separation_clique_past_exact_cap_unbreakable():
    # K21 has diameter 1 and 20 distinct neighbours per vertex, so the degree
    # tests decide before any flow or mask search
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


def random_dense_multigraph(rng, n):
    """Two blocks of bundled edges (1-10 parallel copies) and loops, each complete half the
    time, joined by random edges, few of them half the time; n >= 2."""
    split = rng.randint(1, n - 1)
    g = MultiGraph(n)
    for lo, hi in ((0, split), (split, n)):
        density, bundle = rng.choice((1.0, rng.random())), rng.choice((1, 3, 10))
        for u in range(lo, hi):
            if u > lo:
                g.add_edge(rng.randrange(lo, u), u)
            for v in range(u, hi):
                if rng.random() < (0.1 if u == v else density):
                    for _ in range(rng.randint(1, bundle)):
                        g.add_edge(u, v)
    for _ in range(rng.randint(1, rng.choice((2, split * (n - split))))):
        g.add_edge(rng.randrange(split), rng.randrange(split, n))
    return g


def count_flows(monkeypatch):
    """Route good_edge_separation's min_cut calls through a counter; returns the count list."""
    calls = []

    def counting(*args):
        calls.append(args)
        return min_cut(*args)

    monkeypatch.setattr(multigraph, "min_cut", counting)
    return calls


def min_degree(g):
    """The least count of non-loop edges at a vertex, parallel ones counted apart."""
    return min(row.bit_count() for row in incidence_matrix(g).row_bits)


def test_good_edge_separation_matches_mask_search(monkeypatch):
    calls = count_flows(monkeypatch)
    rng = random.Random(1201)
    unbreakable = certified = skipped = 0
    for trial in range(600):
        if trial % 2:
            g = random_dense_multigraph(rng, rng.randint(3, 10))
        else:
            g = random_connected_multigraph(rng, rng.randint(3, 12))
        q, p = rng.choice((1, 2)), rng.randint(0, 4)
        calls.clear()
        got = good_edge_separation(g, q, p)
        assert got == mask_search_separation(g, q, p), (g.edges(), q, p)
        unbreakable += got == UNBREAKABLE
        if g.n > 2 * q:
            if min_degree(g) <= p:
                assert not calls
                skipped += 1
            elif not calls:
                assert got == UNBREAKABLE
                certified += 1
    assert unbreakable >= 50 and 600 - unbreakable >= 50
    assert certified >= 50 and skipped >= 50, (certified, skipped)


def test_dense_certificate_is_sound(monkeypatch):
    # wherever the degree tests prove g unbreakable without a flow, every cut exceeds p
    calls = count_flows(monkeypatch)
    rng = random.Random(1204)
    fired = 0
    for _ in range(1000):
        g = random_dense_multigraph(rng, rng.randint(2, 10))
        p = rng.randint(0, 6)
        calls.clear()
        if good_edge_separation(g, 0, p) != UNBREAKABLE or calls or min_degree(g) <= p:
            continue
        fired += 1
        rows = incidence_matrix(g).row_bits
        for mask in range(1, 1 << (g.n - 1)):
            cross = 0
            for v in range(g.n):
                if mask >> v & 1:
                    cross ^= rows[v]
            assert cross.bit_count() > p, (g.edges(), p, mask)
    assert fired >= 100, fired


def two_bundles():
    """10-fold bundles 0-1 and 2-3 plus the edges 0-2 and 1-3: diameter 2, degree 11, a 2-edge cut."""
    return MultiGraph(4, [(0, 1)] * 10 + [(2, 3)] * 10 + [(0, 2), (1, 3)])


def cycle(n):
    g = path_graph(n)
    g.add_edge(n - 1, 0)
    return g


def two_k5s_and_a_bridge():
    g = MultiGraph(10)
    for base in (0, 5):
        for u in range(base, base + 5):
            for v in range(u + 1, base + 5):
                g.add_edge(u, v)
    g.add_edge(4, 5)
    return g


def cube():
    return MultiGraph(8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit])


def circular_ladder(length):
    g = MultiGraph(2 * length)
    for i in range(length):
        g.add_edge(i, (i + 1) % length)
        g.add_edge(length + i, length + (i + 1) % length)
        g.add_edge(i, length + i)
    return g


def k17_doubled():
    g = complete_graph(17)
    g.add_edge(0, 1)
    return g


@pytest.mark.parametrize("g, q, p, breakable, flows", [
    (two_bundles(), 1, 2, True, 2),           # two distinct neighbours each: no certificate
    (cycle(5), 1, 2, True, 0),                # a vertex of degree 2 skips the flows
    (two_k5s_and_a_bridge(), 2, 2, True, 5),  # flows up to the first vertex past the bridge
    (cube(), 1, 2, False, 7),                 # diameter 3: every flow runs
    (circular_ladder(11), 2, 2, False, 21),   # past the cap, proved by the flows
    (k17_doubled(), 2, 2, False, 0),          # diameter 1: the certificate decides
], ids=["two-bundles", "C5", "two-K5s", "Q3", "C11xK2", "K17-doubled"])
def test_good_edge_separation_steps_in_order(monkeypatch, g, q, p, breakable, flows):
    calls = count_flows(monkeypatch)
    got = good_edge_separation(g, q, p)
    assert len(calls) == flows
    if breakable:
        assert got != UNBREAKABLE and got == mask_search_separation(g, q, p)
    else:
        assert got == UNBREAKABLE


def test_neighbour_sets_count_parallel_edges_once_and_skip_loops():
    g = MultiGraph(4, [(0, 1), (1, 0), (2, 2), (1, 2), (3, 3)])
    assert neighbour_sets(g) == [0b0010, 0b0101, 0b0010, 0]
    assert neighbour_sets(MultiGraph(0)) == []


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
