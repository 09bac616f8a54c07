import itertools
import random
import time

import pytest

from spacecover import pgm_solver
from spacecover.gf2 import rank
from spacecover.hardness import (McInstance, TdmInstance, from_3dm,
                                 from_multicolored_clique, mc_has_clique,
                                 random_3dm_instance, random_mc_instance,
                                 tdm_has_matching)
from spacecover.oracle import solve_primal_bruteforce


def test_mc_instance_rejects_intra_class_edges():
    with pytest.raises(ValueError):
        McInstance(4, [(0, 1)], [[0, 1], [2, 3]])


def test_mc_has_clique():
    parts = [[0, 1], [2, 3]]
    assert mc_has_clique(McInstance(4, [(0, 2)], parts))
    assert not mc_has_clique(McInstance(4, [], parts))
    parts3 = [[0], [1], [2]]
    assert mc_has_clique(McInstance(3, [(0, 1), (1, 2), (0, 2)], parts3))
    assert not mc_has_clique(McInstance(3, [(0, 1), (1, 2)], parts3))


def test_tdm_has_matching():
    assert tdm_has_matching(TdmInstance(1, [(0, 0, 0)]))
    assert not tdm_has_matching(TdmInstance(1, []))
    assert tdm_has_matching(TdmInstance(2, [(0, 0, 0), (1, 1, 1)]))
    assert not tdm_has_matching(TdmInstance(2, [(0, 0, 0), (0, 1, 1)]))


def test_mc_reduction_frozen_examples():
    parts = [[0, 1], [2, 3]]
    yes = from_multicolored_clique(McInstance(4, [(0, 2)], parts))
    assert yes.mode == "primal"
    assert yes.k == 3  # k(k+1)/2 for k=2
    res = solve_primal_bruteforce(yes)
    assert res is not None
    assert len(res[0]) == 3
    no = from_multicolored_clique(McInstance(4, [], parts))
    assert no.k == 3
    assert solve_primal_bruteforce(no) is None


def test_mc_budget_formula():
    for k in (2, 3):
        mc = random_mc_instance(k, 2, 0.5, random.Random(1))
        inst = from_multicolored_clique(mc)
        assert inst.k == k * (k + 1) // 2
        assert len(inst.terminals) == k * (k - 1) // 2


def test_3dm_reduction_frozen_examples():
    yes = from_3dm(TdmInstance(1, [(0, 0, 0)]))
    assert yes.mode == "primal"
    assert yes.k == 3
    assert len(yes.terminals) == 2
    assert rank(yes.p) <= 2
    res = solve_primal_bruteforce(yes)
    assert res is not None
    assert len(res[0]) == 3
    no = from_3dm(TdmInstance(1, []))
    assert solve_primal_bruteforce(no) is None


def test_3dm_rank_bound_holds_generally():
    rng = random.Random(7)
    for _ in range(10):
        tdm = random_3dm_instance(2, rng.randrange(1, 6), rng)
        inst = from_3dm(tdm)
        assert rank(inst.p) <= 2
        assert inst.k == 6


def test_mc_equivalence_exhaustive_four_vertices():
    parts = [[0, 1], [2, 3]]
    cross = [(u, v) for u in parts[0] for v in parts[1]]
    for mask in range(1 << len(cross)):
        edges = [cross[i] for i in range(len(cross)) if (mask >> i) & 1]
        mc = McInstance(4, edges, parts)
        inst = from_multicolored_clique(mc)
        got = solve_primal_bruteforce(inst) is not None
        assert got == mc_has_clique(mc), edges


def test_3dm_equivalence_small():
    for triples in itertools.chain.from_iterable(
            itertools.combinations([(0, 0, 0)], r) for r in range(2)):
        tdm = TdmInstance(1, list(triples))
        got = solve_primal_bruteforce(from_3dm(tdm)) is not None
        assert got == tdm_has_matching(tdm)


# Budgets 6 and 9 lie past the guess chain, which would build the 6-edge
# backbone catalog (or refuse it past BACKBONE_EDGE_CAP); the search tree
# decides each of these rows in a few hundred nodes.
PAST_THE_CHAIN = {
    "mc-3-colours": (lambda rng: random_mc_instance(3, 3, 0.4, rng),
                     from_multicolored_clique, mc_has_clique),
    "3dm-q2": (lambda rng: random_3dm_instance(2, 4, rng), from_3dm, tdm_has_matching),
    "3dm-q3": (lambda rng: random_3dm_instance(3, 9, rng), from_3dm, tdm_has_matching),
}


@pytest.mark.parametrize("family", list(PAST_THE_CHAIN))
def test_reductions_past_the_guess_chain_decide_in_the_search_tree(family):
    draw, reduce_, decide = PAST_THE_CHAIN[family]
    verdicts = set()
    for seed in range(8):
        source = draw(random.Random(seed))
        inst = reduce_(source)
        assert inst.k >= 6
        stats = {}
        start = time.perf_counter()
        got = pgm_solver.solve(inst, stats=stats)
        assert time.perf_counter() - start < 1.0, seed
        assert "guesses" not in stats, seed
        assert (got is not None) == decide(source), seed
        if got is not None:
            f, cert = got
            assert len(f) <= inst.k and not f & set(inst.terminals)
            assert cert.verify(inst.a_matrix)
        verdicts.add(got is not None)
    assert verdicts == {True, False}
