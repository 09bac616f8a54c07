import random

import pytest

from helpers import all_embeddings, random_forest
from spacecover import pattern_cover
from spacecover.derand import build_hash_family
from spacecover.multigraph import MultiGraph
from spacecover.oracle import pattern_cover_bruteforce
from spacecover.pattern_cover import (Embedding, HostIndex, PatternCoverInstance,
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


def repinned(inst, rng):
    """The instance with 0..min(h.n, g.n) pattern vertices pinned to random hosts."""
    count = rng.randrange(0, min(inst.h.n, inst.g.n) + 1)
    pins = rng.sample(range(inst.h.n), count)
    targets = rng.sample(range(inst.g.n), count)
    return PatternCoverInstance(inst.g, inst.ell_g, inst.h, inst.ell_h,
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


def _pinned_path_instance():
    """A 3-vertex path pattern pinned at vertex 0 into a host with a parallel pair."""
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (1, 2)])
    h = MultiGraph(3, [(0, 1), (1, 2)])
    return PatternCoverInstance(g, {0: 1, 1: 2, 2: 1, 3: 1}, h, {0: 1, 1: 2},
                                frozenset({0}), {0: 0})


# One break of each condition Embedding.verify checks, as (vertex map, edge
# map); None keeps the valid embedding's map.
BROKEN_EMBEDDINGS = {
    "vertex-missing": ({0: 0, 1: 1}, None),
    "vertex-collision": ({0: 0, 1: 1, 2: 1}, None),
    "pin-moved": ({0: 3, 1: 2, 2: 1}, None),
    "edge-missing": (None, {0: 0}),
    "edge-collision": (None, {0: 1, 1: 1}),
    "host-edge-absent": (None, {0: 0, 1: 9}),
    "wrong-endpoints": (None, {0: 0, 1: 2}),
    "wrong-label": (None, {0: 0, 1: 3}),
}


@pytest.mark.parametrize("vertex_map, edge_map", list(BROKEN_EMBEDDINGS.values()),
                         ids=list(BROKEN_EMBEDDINGS))
def test_verify_rejects_each_broken_embedding(vertex_map, edge_map):
    inst = _pinned_path_instance()
    valid = Embedding({0: 0, 1: 1, 2: 2}, {0: 0, 1: 1})
    assert solve(inst) == valid and valid.verify(inst)
    broken = Embedding(vertex_map or valid.vertex_map, edge_map or valid.edge_map)
    assert not broken.verify(inst)


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
        # pin images take the reserved colors free, free + 1, ... in host order
        pins = sorted(inst.f.values())
        others = [x for x in range(inst.g.n) if x not in inst.f.values()]
        free = inst.h.n - len(pins)
        if free <= len(others):
            family = build_hash_family(len(others), free).functions if free \
                else [(0,) * len(others)]
            for phi in family:
                coloring = [0] * inst.g.n
                for x, c in zip(others, phi):
                    coloring[x] = c
                for j, x in enumerate(pins):
                    coloring[x] = free + j
                want = colorful_solve(inst, coloring)
                if want is not None:
                    break
        assert (got is None) == (want is None)
        if got is not None:
            assert got.vertex_map == want.vertex_map
            assert got.edge_map == want.edge_map
            found += 1
    assert found >= 20


def test_solve_matches_bruteforce_from_no_pins_to_all():
    rng = random.Random(53)
    seen = {"no pins": 0, "all pinned": 0, "free >= 2": 0, "free > hosts left": 0}
    yes = 0
    for _ in range(400):
        inst = repinned(random_pattern_instance(rng, gn_max=7, hn_max=6, t_max=2), rng)
        free, rest = inst.h.n - len(inst.u), inst.g.n - len(inst.u)
        seen["no pins"] += not inst.u
        seen["all pinned"] += free == 0
        seen["free >= 2"] += 2 <= free <= rest
        seen["free > hosts left"] += free > rest
        got = solve(inst)
        want = pattern_cover_bruteforce(inst)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.verify(inst)
            yes += 1
    assert min(seen.values()) >= 20, seen
    assert yes >= 40


def test_solve_hashes_only_the_free_pattern_vertices(monkeypatch):
    requested = []

    def recording(n, k):
        requested.append((n, k))
        return build_hash_family(n, k)

    monkeypatch.setattr(pattern_cover, "build_hash_family", recording)
    pattern_cover._hash_family_cached.cache_clear()
    rng = random.Random(59)
    for _ in range(200):
        inst = repinned(random_pattern_instance(rng, gn_max=8, hn_max=6), rng)
        before = len(requested)
        solve(inst)
        free, rest = inst.h.n - len(inst.u), inst.g.n - len(inst.u)
        assert all(args == (rest, free) for args in requested[before:])
    pattern_cover._hash_family_cached.cache_clear()
    assert len(requested) >= 10 and any(k >= 2 for _n, k in requested)


def test_excluded_edges_act_as_removed_and_share_one_host_index():
    rng = random.Random(61)
    found = rejected = 0
    for _ in range(300):
        inst = repinned(random_pattern_instance(rng, gn_max=6, hn_max=5, t_max=2), rng)
        excluded = frozenset(e for e in inst.g.edge_ids() if rng.random() < 0.3)
        host = HostIndex(inst.g, inst.ell_g)
        shared = PatternCoverInstance(inst.g, inst.ell_g, inst.h, inst.ell_h, inst.u, inst.f,
                                      excluded=excluded, host=host)
        removed = inst.g.without_edges(excluded)
        copied = PatternCoverInstance(removed, {e: inst.ell_g[e] for e in removed.edge_ids()},
                                      inst.h, inst.ell_h, inst.u, inst.f)
        got, want = solve(shared), solve(copied)
        assert got == want
        if got is None:
            continue
        found += 1
        assert not set(got.edge_map.values()) & excluded and got.verify(shared)
        # the same embedding fails once one of its edges is excluded
        if got.edge_map:
            used = rng.choice(sorted(got.edge_map.values()))
            again = PatternCoverInstance(inst.g, inst.ell_g, inst.h, inst.ell_h, inst.u, inst.f,
                                         excluded=excluded | {used}, host=host)
            assert got.verify(copied) and not got.verify(again)
            rejected += 1
    assert found >= 40 and rejected >= 20


def test_host_index_must_be_of_the_instance_graph():
    inst = _pinned_path_instance()
    other = HostIndex(inst.g.copy(), inst.ell_g)
    with pytest.raises(ValueError):
        PatternCoverInstance(inst.g, inst.ell_g, inst.h, inst.ell_h, inst.u, inst.f, host=other)
