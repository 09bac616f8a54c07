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


def test_restrict_keeps_column_alignment():
    rng = random.Random(11)
    inst = random_instance("primal", 5, 8, 2, 2, 2, rng)
    keep = inst.graph.edge_ids()[:5]
    sub = inst.restrict(keep)
    assert sub.mode == "primal"
    for eid in sub.graph.edge_ids():
        assert sub.p.column(sub.col_of[eid]) == inst.p.column(inst.col_of[eid])
        assert sub.graph.endpoints(eid) == inst.graph.endpoints(eid)
    assert set(sub.terminals) == set(inst.terminals) & set(keep)


def test_restrict_takes_the_kept_columns_of_a_and_p():
    rng = random.Random(12)
    for _ in range(40):
        inst = random_instance(rng.choice(["primal", "dual"]), rng.randint(1, 8),
                               rng.randint(0, 14), rng.randint(0, 3), 2, 2, rng)
        eids = inst.graph.edge_ids()
        sub = inst.restrict(rng.sample(eids, rng.randint(0, len(eids))))
        assert sub.a_matrix == incidence_matrix(sub.graph) ^ sub.p
        # the kept columns agree with the ones the rows give
        for m in (sub.p, sub.a_matrix):
            assert m.columns() == Gf2Matrix(m.rows, m.cols, m.row_bits).columns()


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
