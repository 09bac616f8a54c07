import random

import pytest

from spacecover.gf2 import Gf2Matrix, rank
from spacecover.instances import DualInstance, PrimalInstance, random_instance
from spacecover.multigraph import MultiGraph, incidence_matrix


def triangle_instance(k=2, mode="primal"):
    g = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    p = Gf2Matrix(3, 3)
    cls = PrimalInstance if mode == "primal" else DualInstance
    return cls(g, p, [2], k)


def test_shape_validation():
    g = MultiGraph(3, [(0, 1)])
    with pytest.raises(ValueError):
        PrimalInstance(g, Gf2Matrix(3, 2), [0], 1)
    with pytest.raises(ValueError):
        PrimalInstance(g, Gf2Matrix(3, 1), [5], 1)
    with pytest.raises(ValueError):
        PrimalInstance(g, Gf2Matrix(3, 1), [0], -1)


def test_a_matrix_equals_incidence_when_p_zero():
    inst = triangle_instance()
    assert inst.a_matrix == incidence_matrix(inst.graph)
    assert inst.r == 0


def test_a_matrix_adds_perturbation():
    g = MultiGraph(2, [(0, 1)])
    p = Gf2Matrix.from_strings(["1", "0"])
    inst = PrimalInstance(g, p, [], 0)
    assert inst.a_column(0) == 0b10
    assert inst.r == 1


def test_edge_ids_must_be_the_column_indices():
    # edge j is column j of P and A, so the ids must be 0..m-1
    g = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    for cls in (PrimalInstance, DualInstance):
        with pytest.raises(ValueError):
            cls(g.without_edges([1]), Gf2Matrix(3, 2), [], 1)
        assert cls(g.without_edges([2]), Gf2Matrix(3, 2), [0], 1).nonterminal_edges() == [1]


def test_restrict_keeps_column_alignment():
    rng = random.Random(11)
    inst = random_instance("primal", 5, 8, 2, 2, 2, rng)
    keep = sorted(rng.sample(inst.graph.edge_ids(), 5))
    sub = inst.restrict(keep)
    assert sub.mode == "primal"
    assert sub.graph.edge_ids() == list(range(5))
    for j, eid in enumerate(keep):
        assert sub.p.column(j) == inst.p.column(eid)
        assert sub.graph.endpoints(j) == inst.graph.endpoints(eid)
    assert {keep[j] for j in sub.terminals} == set(inst.terminals) & set(keep)


def test_restrict_takes_the_kept_columns_of_a_and_p():
    # edge j of the restriction is edge keep[j] of the input: its endpoints and its
    # columns of P and A
    rng = random.Random(12)
    for _ in range(40):
        inst = random_instance(rng.choice(["primal", "dual"]), rng.randint(1, 8),
                               rng.randint(0, 14), rng.randint(0, 3), 2, 2, rng)
        eids = inst.graph.edge_ids()
        keep = sorted(rng.sample(eids, rng.randint(0, len(eids))))
        terms = rng.sample(eids, rng.randint(0, len(eids)))
        sub = inst.restrict(keep, terminals=terms)
        assert sub.a_matrix == incidence_matrix(sub.graph) ^ sub.p
        assert sub.graph.edge_ids() == list(range(len(keep)))
        for j, eid in enumerate(keep):
            assert sub.graph.endpoints(j) == inst.graph.endpoints(eid)
            assert sub.p.column(j) == inst.p.column(eid)
            assert sub.a_column(j) == inst.a_column(eid)
        assert [keep[j] for j in sub.terminals] == sorted(set(terms) & set(keep))


def test_random_instance_respects_rank_bound():
    rng = random.Random(3)
    for r in range(4):
        inst = random_instance("dual", 6, 9, r, 2, 2, rng)
        assert rank(inst.p) <= r
        assert inst.mode == "dual"
        assert len(inst.terminals) <= 2
        assert inst.graph.num_edges == 9


def test_terminals_sorted_and_deduplicated():
    g = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    inst = PrimalInstance(g, Gf2Matrix(3, 3), [2, 0, 2], 1)
    assert inst.terminals == (0, 2)
    assert inst.nonterminal_edges() == [1]
