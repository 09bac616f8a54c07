import random

import pytest

from helpers import complete_graph
from spacecover.binmatroid import dual_span_contains, is_cocycle, span_contains
from spacecover.gf2 import Gf2Matrix
from spacecover.multigraph import incidence_matrix


def k4_matroid():
    return incidence_matrix(complete_graph(4))


def test_span_contains_certificate_verifies():
    m = k4_matroid()
    g = complete_graph(4)
    by_ends = {tuple(sorted(g.endpoints(e))): e for e in g.edge_ids()}
    f = [by_ends[(0, 1)], by_ends[(1, 2)]]
    cert = span_contains(m, f, [by_ends[(0, 2)]])
    assert cert is not None
    assert cert.verify(m)
    assert cert.parts[by_ends[(0, 2)]] == frozenset(f)
    assert span_contains(m, [by_ends[(0, 1)]], [by_ends[(2, 3)]]) is None


def test_span_contains_rejects_overlap():
    m = k4_matroid()
    with pytest.raises(ValueError):
        span_contains(m, [0, 1], [1])


def test_is_cocycle_on_graph_cut():
    m = k4_matroid()
    g = complete_graph(4)
    # the cut around vertex 0 is a cocycle; a single cycle edge set is not a cut
    star = [e for e in g.edge_ids() if 0 in g.endpoints(e)]
    cert = is_cocycle(m, star)
    assert cert is not None and cert.verify(m)
    by_ends = {tuple(sorted(g.endpoints(e))): e for e in g.edge_ids()}
    triangle = [by_ends[(0, 1)], by_ends[(1, 2)], by_ends[(0, 2)]]
    assert is_cocycle(m, triangle) is None


def test_dual_span_contains_certificates():
    g = complete_graph(4)
    m = incidence_matrix(g)
    by_ends = {tuple(sorted(g.endpoints(e))): e for e in g.edge_ids()}
    w = by_ends[(0, 1)]
    f = [by_ends[(0, 2)], by_ends[(0, 3)]]
    certs = dual_span_contains(m, f, [w])
    assert certs is not None
    cc = certs[w]
    assert w in cc.edge_set
    assert cc.edge_set - {w} <= set(f)
    assert cc.verify(m)
    assert dual_span_contains(m, [], [w]) is None


def test_dual_span_randomized_consistency():
    rng = random.Random(5)
    for _ in range(30):
        rows = rng.randrange(2, 5)
        cols = rng.randrange(3, 7)
        m = Gf2Matrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])
        w = rng.randrange(cols)
        f = [j for j in range(cols) if j != w and rng.random() < 0.5]
        certs = dual_span_contains(m, f, [w])
        if certs is not None:
            assert certs[w].verify(m)
        else:
            # no subset of f completes w to a cocycle
            for size in range(len(f) + 1):
                import itertools
                for sub in itertools.combinations(f, size):
                    assert is_cocycle(m, set(sub) | {w}) is None
