import random

import pytest

from helpers import all_embeddings, random_forest
from spacecover.derand import build_hash_family
from spacecover.multigraph import MultiGraph
from spacecover.oracle import pattern_cover_bruteforce
from spacecover.pattern_cover import (Embedding, PatternCoverInstance,
                                      colorful_solve, solve)


def random_pattern_instance(rng, gn_max=8, hn_max=5, t_max=3):
    gn = rng.randrange(2, gn_max + 1)
    g = MultiGraph(gn)
    t = rng.randrange(1, t_max + 1)
    for _ in range(rng.randrange(2, 2 * gn)):
        u, v = rng.randrange(gn), rng.randrange(gn)
        g.add_edge(u, v)
    ell_g = {e: rng.randrange(1, t + 1) for e in g.edge_ids()}
    h = random_forest(rng.randrange(1, hn_max + 1), rng)
    ell_h = {e: rng.randrange(1, t + 1) for e in h.edge_ids()}
    pins = rng.sample(range(h.n), min(rng.randrange(0, 3), h.n, g.n))
    targets = rng.sample(range(g.n), len(pins))
    return PatternCoverInstance(g, ell_g, h, ell_h,
                                frozenset(pins), dict(zip(pins, targets)))


def test_rejects_non_forest_pattern():
    g = MultiGraph(3, [(0, 1)])
    triangle = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    # 17 edges: a 17-cycle, past the reach of cycle counting
    long_cycle = MultiGraph(17, [(i, (i + 1) % 17) for i in range(17)])
    for h in (triangle, long_cycle):
        with pytest.raises(ValueError):
            PatternCoverInstance(g, {0: 1}, h, {e: 1 for e in h.edge_ids()})


def test_rejects_bad_pin_map():
    g = MultiGraph(3, [(0, 1)])
    h = MultiGraph(2, [(0, 1)])
    with pytest.raises(ValueError):
        PatternCoverInstance(g, {0: 1}, h, {0: 1}, frozenset({0}), {})
    with pytest.raises(ValueError):
        PatternCoverInstance(g, {0: 1}, h, {0: 1},
                             frozenset({0, 1}), {0: 2, 1: 2})


def test_single_edge_pattern():
    g = MultiGraph(3, [(0, 1), (1, 2)])
    h = MultiGraph(2, [(0, 1)])
    inst = PatternCoverInstance(g, {0: 1, 1: 2}, h, {0: 2})
    emb = solve(inst)
    assert emb is not None and emb.verify(inst)
    assert emb.edge_map[0] == 1  # only the label-2 host edge matches
    none_inst = PatternCoverInstance(g, {0: 1, 1: 2}, h, {0: 3})
    assert solve(none_inst) is None


def test_label_mismatch_blocks_embedding():
    g = MultiGraph(2, [(0, 1)])
    h = MultiGraph(2, [(0, 1)])
    assert solve(PatternCoverInstance(g, {0: 1}, h, {0: 2})) is None
    assert solve(PatternCoverInstance(g, {0: 2}, h, {0: 2})) is not None


def test_pins_are_respected():
    g = MultiGraph(4, [(0, 1), (2, 3)])
    h = MultiGraph(2, [(0, 1)])
    inst = PatternCoverInstance(g, {0: 1, 1: 1}, h, {0: 1},
                                frozenset({0}), {0: 2})
    emb = solve(inst)
    assert emb is not None
    assert emb.vertex_map[0] == 2
    assert emb.edge_map[0] == 1


def test_empty_pattern():
    g = MultiGraph(2, [(0, 1)])
    h = MultiGraph(0)
    emb = solve(PatternCoverInstance(g, {0: 1}, h, {}))
    assert emb == Embedding({}, {})


def test_deterministic_solve_matches_bruteforce():
    rng = random.Random(17)
    agree = 0
    for _ in range(80):
        inst = random_pattern_instance(rng)
        got = solve(inst)
        want = pattern_cover_bruteforce(inst)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.verify(inst)
        agree += 1
    assert agree == 80


def test_colorful_solve_matches_rainbow_filter():
    rng = random.Random(29)
    for _ in range(60):
        inst = random_pattern_instance(rng, gn_max=6, hn_max=4)
        k = inst.h.n
        coloring = [rng.randrange(max(k, 1)) for _ in range(inst.g.n)]
        got = colorful_solve(inst, coloring)
        rainbow = [emb for emb in all_embeddings(inst)
                   if len({coloring[x] for x in emb.vertex_map.values()}) == k]
        assert (got is None) == (not rainbow)
        if got is not None:
            assert got.verify(inst)
            image = {coloring[x] for x in got.vertex_map.values()}
            assert len(image) == k


def test_solve_returns_first_admitting_colorful_embedding():
    rng = random.Random(41)
    found = 0
    for _ in range(80):
        inst = random_pattern_instance(rng)
        got = solve(inst)
        want = None
        if inst.h.n <= inst.g.n:
            for coloring in build_hash_family(inst.g.n, inst.h.n).functions:
                want = colorful_solve(inst, coloring)
                if want is not None:
                    break
        assert (got is None) == (want is None)
        if got is not None:
            assert got.vertex_map == want.vertex_map
            assert got.edge_map == want.edge_map
            found += 1
    assert found >= 20
