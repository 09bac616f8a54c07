import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import primal_corpus
from spacecover import pgm_solver
from spacecover.gf2 import Gf2Matrix
from spacecover.instances import PrimalInstance, random_instance
from spacecover.multigraph import MultiGraph, count_simple_cycles, spanning_forest
from spacecover.oracle import solve_primal_bruteforce
from spacecover.pgm_solver import (edge_types, enumerate_backbones,
                                   reduce_terminals)

BACKBONE_COUNTS = {(1, 1): 2, (1, 2): 2, (2, 1): 9, (2, 2): 9,
                   (3, 1): 28, (3, 2): 32}


def test_backbone_counts_frozen():
    for (k, t), want in BACKBONE_COUNTS.items():
        got = list(enumerate_backbones(k, t))
        assert len(got) == want, (k, t)


def _reference_backbones(k, t):
    """(n, edge list) of the first graph of each class, by a canonical-form search per call."""
    out = []
    for me in range(1, k + 1):
        seen = set()
        for nv in range(1, 2 * me + 1):
            slots = [(i, j) for i in range(nv) for j in range(i, nv)]
            for combo in itertools.combinations_with_replacement(slots, me):
                if len({v for e in combo for v in e}) != nv:
                    continue
                key = (nv, min(tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in combo))
                               for p in itertools.permutations(range(nv))))
                if key in seen:
                    continue
                seen.add(key)
                if count_simple_cycles(MultiGraph(nv, combo)) <= 1 << t:
                    out.append((nv, list(combo)))
    return out


def _backbone_shapes(k, t):
    return [(g.n, [e for _, e in g.edges()]) for g in enumerate_backbones(k, t)]


def test_backbone_catalog_matches_canonical_search(monkeypatch):
    want = {(k, t): _reference_backbones(k, t) for k in (1, 2, 3) for t in (1, 2, 3)}
    for (k, t), shapes in want.items():
        assert _backbone_shapes(k, t) == shapes, (k, t)

    def no_search(*args):
        raise AssertionError("canonical-form search on a repeated call")

    monkeypatch.setattr(pgm_solver, "_canonical_form", no_search)
    for (k, t), shapes in want.items():
        assert _backbone_shapes(k, t) == shapes, (k, t)


def test_backbones_respect_cycle_cap():
    for t in (1, 2):
        for g in enumerate_backbones(3, t):
            assert 1 <= g.num_edges <= 3
            assert count_simple_cycles(g) <= 1 << t
            deg = {v: 0 for v in range(g.n)}
            for _, (u, v) in g.edges():
                deg[u] += 1
                deg[v] += 1
            assert all(d > 0 for d in deg.values())


def test_edge_types():
    p = Gf2Matrix.from_strings(["1010", "0000"])
    t, types = edge_types(p)
    assert t == 2
    assert types == {0: 1, 1: 2, 2: 1, 3: 2}


def test_reduce_terminals_drops_dependent_and_duplicates():
    # two parallel terminal edges: identical columns, basis keeps one
    g = MultiGraph(2, [(0, 1), (0, 1), (0, 1), (0, 1)])
    inst = PrimalInstance(g, Gf2Matrix(2, 4), [0, 1], 1)
    red = reduce_terminals(inst)
    assert red.terminals == (0,)
    assert not red.immediate_no
    # the two duplicate non-terminal columns collapse to one survivor
    assert len(red.nonterminal_edges()) == 1
    assert red.merge_map == {3: 2}


def test_reduce_terminals_immediate_no():
    g = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    inst = PrimalInstance(g, Gf2Matrix(3, 3), [0, 1], 1)
    red = reduce_terminals(inst)
    assert red.immediate_no


def test_solve_empty_terminal_basis():
    # a loop terminal with P = 0 has the zero column: spanned by the empty set
    g = MultiGraph(2, [(0, 0), (0, 1)])
    inst = PrimalInstance(g, Gf2Matrix(2, 2), [0], 1)
    res = pgm_solver.solve(inst)
    assert res is not None
    f, cert = res
    assert f == frozenset()
    assert cert.verify(inst.matroid())


def test_solve_matches_oracle_small_corpus():
    stats = {}
    for inst in primal_corpus(80, seed=101):
        got = pgm_solver.solve(inst, stats=stats)
        want = solve_primal_bruteforce(inst)
        assert (got is None) == (want is None)
        if got is not None:
            f, cert = got
            assert len(f) <= inst.k
            assert not set(f) & set(inst.terminals)
            assert cert.verify(inst.matroid())
    assert stats["guesses"] == 195


def test_solve_finds_minimum_size():
    for inst in primal_corpus(40, seed=103, k_max=2):
        got = pgm_solver.solve(inst)
        want = solve_primal_bruteforce(inst)
        if got is None:
            assert want is None
        else:
            assert len(got[0]) == len(want[0])


def _pin_enumeration_by_scan(inst, backbone, extra):
    """The pin choices by a scan of every non-terminal host edge per (image, extra edge)."""
    if not extra:
        yield {}, {}
        return
    vtilde = sorted({v for eid in extra for v in backbone.endpoints(eid)})
    host_edges = [(ge, inst.graph.endpoints(ge)) for ge in inst.graph.edge_ids()
                  if ge not in inst.terminals]
    for images in itertools.permutations(range(inst.graph.n), len(vtilde)):
        f = dict(zip(vtilde, images))
        options = [[ge for ge, (x, y) in host_edges if {x, y} == {f[u], f[v]}]
                   for u, v in map(backbone.endpoints, extra)]
        for combo in itertools.product(*options):
            if len(set(combo)) == len(combo):
                yield f, dict(zip(extra, combo))


def test_pin_enumeration_with_loops_and_parallel_edges():
    # a tripled edge (one copy reversed, one a terminal), one loop at 0, two at 1
    g = MultiGraph(3, [(0, 1), (1, 0), (0, 1), (0, 0), (1, 1), (1, 1), (1, 2), (2, 0)])
    inst = PrimalInstance(g, Gf2Matrix(3, 8), [2], 1)
    # a tripled edge and a loop: the cycle-closing edges are a parallel pair and the loop
    backbone = MultiGraph(2, [(0, 1), (0, 1), (0, 1), (1, 1)])
    forest = set(spanning_forest(backbone))
    extra = [eid for eid in backbone.edge_ids() if eid not in forest]
    assert len(extra) == 3 and any(backbone.is_loop(eid) for eid in extra)
    got = list(pgm_solver._pin_enumeration(inst, backbone, extra))
    want = list(_pin_enumeration_by_scan(inst, backbone, extra))
    assert got == want
    assert len(want) == 6   # pair onto edges 0 and 1 in both orders; loop onto 4 or 5, or 3


@settings(max_examples=100, deadline=None)
@given(st.integers(8, 12), st.integers(0, 10 ** 6), st.integers(1, 2), st.integers(1, 3),
       st.integers(2, 3), st.data())
def test_solve_matches_oracle_at_bench_sizes(n, seed, r, num_terminals, k, data):
    m = data.draw(st.integers((9 * n + 4) // 5, 2 * n))   # m in [1.8n, 2n]
    inst = random_instance("primal", n, m, r, num_terminals, k, random.Random(seed))
    got = pgm_solver.solve(inst)
    want = solve_primal_bruteforce(inst)
    assert (got is None) == (want is None)
    if got is not None:
        f, cert = got
        assert len(f) <= inst.k
        assert not set(f) & set(inst.terminals)
        assert cert.verify(inst.matroid())
