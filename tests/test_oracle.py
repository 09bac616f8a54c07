import pytest

from helpers import dual_corpus, primal_corpus
from spacecover.gf2 import Gf2Matrix
from spacecover.instances import DualInstance, PrimalInstance
from spacecover.multigraph import MultiGraph
from spacecover.oracle import (minimal_primal_solutions, solve_dual_bruteforce,
                               solve_primal_bruteforce)


def triangle(mode, k):
    g = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    cls = PrimalInstance if mode == "primal" else DualInstance
    return cls(g, Gf2Matrix(3, 3), [2], k)


def test_primal_triangle():
    # the terminal column 0-2 is the sum of the other two edges
    assert solve_primal_bruteforce(triangle("primal", 1)) is None
    res = solve_primal_bruteforce(triangle("primal", 2))
    assert res is not None
    f, cert = res
    assert f == frozenset({0, 1})
    assert cert.verify(triangle("primal", 2).a_matrix)


def test_dual_triangle():
    # any cut containing the terminal edge has two edges, so k=1 suffices
    res = solve_dual_bruteforce(triangle("dual", 1))
    assert res is not None
    f, certs = res
    assert len(f) == 1
    assert certs[2].verify(triangle("dual", 1).a_matrix)
    assert solve_dual_bruteforce(triangle("dual", 0)) is None


def test_minimum_cardinality_returned():
    for inst in primal_corpus(40, seed=77):
        res = solve_primal_bruteforce(inst)
        if res is None:
            continue
        f, _ = res
        smaller = PrimalInstance(inst.graph, inst.p, inst.terminals, len(f) - 1) \
            if f else None
        if smaller is not None:
            assert solve_primal_bruteforce(smaller) is None


def test_minimal_solutions_are_minimal_and_valid():
    from spacecover.binmatroid import span_contains

    for inst in primal_corpus(30, seed=78, k_max=2):
        sols = minimal_primal_solutions(inst)
        m = inst.a_matrix
        terms = list(inst.terminals)
        for f in sols:
            assert span_contains(m, f, terms) is not None
            for e in f:
                rest = [x for x in f if x != e]
                assert span_contains(m, rest, terms) is None
        for a in sols:
            for b in sols:
                if a is not b:
                    assert not a < b


def test_guard_rejects_oversized_enumeration():
    g = MultiGraph(2)
    for _ in range(40):
        g.add_edge(0, 1)
    inst = PrimalInstance(g, Gf2Matrix(2, 40), [0], 20)
    with pytest.raises(ValueError):
        solve_primal_bruteforce(inst)


def test_dual_certificates_reverify():
    for inst in dual_corpus(30, seed=79):
        res = solve_dual_bruteforce(inst)
        if res is None:
            continue
        f, certs = res
        m = inst.a_matrix
        assert set(certs) == set(inst.terminals)
        for cc in certs.values():
            assert cc.verify(m)
