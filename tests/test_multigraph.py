import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import complete_graph, path_graph
from spacecover.gf2 import rank
from spacecover.multigraph import (UNBREAKABLE, MultiGraph, connected_components,
                                   count_simple_cycles, good_edge_separation,
                                   incidence_matrix, is_connected,
                                   signed_components, spanning_forest)


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


def test_incidence_matrix_loop_column_is_zero():
    g = MultiGraph(2)
    g.add_edge(0, 1)
    g.add_edge(1, 1)
    m = incidence_matrix(g)
    assert m.column(0).to_string() == "11"
    assert m.column(1).is_zero()


def test_induced_maps_back():
    g = MultiGraph(4)
    e01 = g.add_edge(0, 1)
    g.add_edge(1, 2)
    e13 = g.add_edge(1, 3)
    sub, vmap, emap = g.induced([0, 1, 3])
    assert sub.n == 3 and sub.num_edges == 2
    assert {emap[e] for e in sub.edge_ids()} == {e01, e13}
    assert vmap[3] == 2


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
