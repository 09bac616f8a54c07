import itertools
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import primal_corpus
from spacecover import pgm_solver
from spacecover.gf2 import Gf2Matrix, distinct_columns
from spacecover.instances import PrimalInstance, random_instance
from spacecover.multigraph import MultiGraph, count_simple_cycles, spanning_forest
from spacecover.oracle import solve_primal_bruteforce
from spacecover.pattern_cover import PatternCoverInstance
from spacecover.pgm_solver import (GuessContext, edge_types, enumerate_backbones,
                                   reduce_terminals, terminal_target_vertices)

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
    assert cert.verify(inst.a_matrix)


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
            assert cert.verify(inst.a_matrix)
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
    got = list(pgm_solver._pin_enumeration(pgm_solver._host_pairs(inst), inst.graph.n,
                                           backbone, extra))
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
        assert cert.verify(inst.a_matrix)


def _reference_pattern_instances(inst):
    """The guess chain without pruning: every parity combination, pin and (D, f*) in turn."""
    t, types = edge_types(inst.p)
    classes, _ = distinct_columns(inst.p)
    type_of = {eid: types[inst.col_of[eid]] for eid in inst.graph.edge_ids()}
    term_set = set(inst.terminals)
    edge_by_sig = {}
    for ge in inst.graph.edge_ids():
        if ge not in term_set:
            x, y = inst.graph.endpoints(ge)
            edge_by_sig.setdefault((min(x, y), max(x, y), type_of[ge]), ge)
    for backbone in enumerate_backbones(inst.k, t):
        if backbone.num_edges > inst.k or backbone.n > inst.graph.n:
            continue
        forest = frozenset(spanning_forest(backbone))
        extra = [eid for eid in backbone.edge_ids() if eid not in forest]
        forest_list = sorted(forest)
        subsets = [frozenset(sub) for size in range(backbone.num_edges + 1)
                   for sub in itertools.combinations(backbone.edge_ids(), size)]
        for f, f_e in _pin_enumeration_by_scan(inst, backbone, extra):
            for labels in itertools.product(range(1, t + 1), repeat=len(forest_list)):
                ell = dict(zip(forest_list, labels))
                h_edge_type = dict(ell)
                for eid in extra:
                    h_edge_type[eid] = type_of[f_e[eid]]
                per_term = {}
                for w in inst.terminals:
                    opts = {}
                    for sub in subsets:
                        b = [0] * t
                        for eid in sub:
                            b[h_edge_type[eid] - 1] ^= 1
                        b = tuple(b)
                        odd = pgm_solver._odd_degree(backbone, sub)
                        target = terminal_target_vertices(inst.a_column(w), b, classes)
                        if len(odd) == len(target) <= backbone.n:
                            opts.setdefault(b, []).append((sub, odd, target))
                    per_term[w] = opts
                if not all(per_term.values()):
                    continue
                for h_combo in itertools.product(*(sorted(per_term[w]) for w in inst.terminals)):
                    h = dict(zip(inst.terminals, h_combo))
                    yield from _reference_expand(inst, backbone, forest, extra, f, f_e, ell, h,
                                                 per_term, h_edge_type, type_of, edge_by_sig)


def _reference_expand(inst, backbone, forest, extra, f, f_e, ell, h, per_term,
                      h_edge_type, type_of, edge_by_sig):
    """Every (D, f*) of one parity choice, each checked by a full scan of the backbone edges."""
    v_star = frozenset(f.values()).union(*(per_term[w][h[w]][0][2] for w in inst.terminals))
    if len(v_star) > backbone.n:
        return
    free_targets = sorted(v_star - frozenset(f.values()))
    others = [v for v in range(backbone.n) if v not in f]
    for extra_d in itertools.combinations(others, len(free_targets)):
        d = frozenset(f) | frozenset(extra_d)
        for images in itertools.permutations(free_targets):
            f_star = dict(f)
            f_star.update(zip(extra_d, images))
            f_star_e = {}
            for eid, (u, v) in backbone.edges():
                if u in d and v in d:
                    x, y = f_star[u], f_star[v]
                    f_star_e[eid] = f_e.get(eid, edge_by_sig.get((min(x, y), max(x, y),
                                                                  h_edge_type[eid])))
            if None in f_star_e.values() or len(set(f_star_e.values())) != len(f_star_e):
                continue
            e_subsets = {}
            for w in inst.terminals:
                for sub, odd, target in per_term[w][h[w]]:
                    if odd <= d and frozenset(f_star[v] for v in odd) == target:
                        e_subsets[w] = sub
                        break
            if len(e_subsets) != len(inst.terminals):
                continue
            ctx = GuessContext(backbone=backbone, forest=forest, extra=tuple(extra),
                               f=dict(f), f_e=dict(f_e), ell=dict(ell), h=dict(h),
                               d=d, f_star=f_star, f_star_e=f_star_e, e_subsets=e_subsets)
            host = inst.graph.without_edges(set(f_star_e.values()) | set(inst.terminals))
            pattern = backbone.without_edges(set(f_star_e))
            pci = PatternCoverInstance(
                g=host, ell_g={ge: type_of[ge] for ge in host.edge_ids()}, h=pattern,
                ell_h={eid: h_edge_type[eid] for eid in pattern.edge_ids()}, u=d, f=f_star)
            yield pci, ctx


def _guess_record(pci, ctx):
    """Every field of a guess, dicts as item lists so that their order counts too."""
    def graph(g):
        return g.n, g.edges()

    return (graph(pci.g), list(pci.ell_g.items()), graph(pci.h), list(pci.ell_h.items()),
            pci.u, list(pci.f.items()),
            graph(ctx.backbone), ctx.forest, ctx.extra, list(ctx.f.items()),
            list(ctx.f_e.items()), list(ctx.ell.items()), list(ctx.h.items()), ctx.d,
            list(ctx.f_star.items()), list(ctx.f_star_e.items()),
            list(ctx.e_subsets.items()))


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 9), st.integers(1, 2), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 10 ** 6), st.data())
def test_pattern_instances_match_unpruned_reference(n, r, num_terminals, k, seed, data):
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = data.draw(st.lists(pairs, min_size=num_terminals, max_size=2 * n + 2))
    # at least one loop and one parallel pair in every host
    edges += [edges[0], (edges[-1][0], edges[-1][0])]
    rng = random.Random(seed)
    row_bits = [0] * n
    for _ in range(r):
        col_pat, row_pat = rng.getrandbits(n), rng.getrandbits(len(edges))
        for i in range(n):
            if (col_pat >> i) & 1:
                row_bits[i] ^= row_pat
    terminals = rng.sample(range(len(edges)), num_terminals)
    inst = reduce_terminals(PrimalInstance(MultiGraph(n, edges), Gf2Matrix(n, len(edges), row_bits),
                                           terminals, k))
    assume(not inst.immediate_no and inst.terminals)
    got = [_guess_record(*guess) for guess in pgm_solver.build_pattern_instances(inst)]
    want = [_guess_record(*guess) for guess in _reference_pattern_instances(inst)]
    assert got == want


def _bench_size_instance(seed):
    """A terminal-reduced host with n 8-12, m in [1.8n, 2n], r 1-2, |T| 2-3 and k = 3.

    Two parallel pairs and two loops give the cycle-closing backbone edges
    host edges to be pinned to.
    """
    rng = random.Random(seed)
    while True:
        n, r, num_terminals = rng.randint(8, 12), rng.randint(1, 2), rng.randint(2, 3)
        m = rng.randint((9 * n + 4) // 5, 2 * n)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m - 4)]
        edges += [edges[0], edges[1], (edges[2][0], edges[2][0]), (edges[3][1], edges[3][1])]
        row_bits = [0] * n
        for _ in range(r):
            col_pat, row_pat = rng.getrandbits(n), rng.getrandbits(m)
            for i in range(n):
                if (col_pat >> i) & 1:
                    row_bits[i] ^= row_pat
        terminals = rng.sample(range(m), num_terminals)
        inst = reduce_terminals(PrimalInstance(MultiGraph(n, edges), Gf2Matrix(n, m, row_bits),
                                               terminals, 3))
        if not inst.immediate_no and inst.terminals:
            return inst


def test_pattern_instances_match_unpruned_reference_at_bench_sizes():
    pinned = pinned_forest = 0
    for seed in range(12):
        inst = _bench_size_instance(seed)
        guesses = list(pgm_solver.build_pattern_instances(inst))
        want = [_guess_record(*guess) for guess in _reference_pattern_instances(inst)]
        assert [_guess_record(*guess) for guess in guesses] == want, seed
        for _pci, ctx in guesses:
            pinned += bool(ctx.f)
            pinned_forest += any(set(ctx.backbone.endpoints(eid)) <= set(ctx.f)
                                 for eid in ctx.forest)
    # the pins, and the check on forest edges with both ends pinned, took part
    assert pinned and pinned_forest


def _witness_options_by_scan(witnesses, edge_type, t, terminal_cols, classes, nv):
    """Per terminal, its choices by a scan of every subset, or None: the options before grouping."""
    choices = []
    for w in terminal_cols:
        opts = {}
        for sub, odd in witnesses:
            b = [0] * t
            for eid in sub:
                b[edge_type[eid] - 1] ^= 1
            b = tuple(b)
            target = terminal_target_vertices(w, b, classes)
            if len(odd) != len(target) or len(target) > nv:
                continue
            opts.setdefault(b, (target, {}))[1].setdefault(odd, sub)
        if not opts:
            return None
        choices.append([(b, opts[b][0], list(opts[b][1].items())) for b in sorted(opts)])
    return choices


def test_witness_options_match_plain_scan():
    rng = random.Random(11)
    n_host = 5
    for me in range(1, 4):
        for backbone, _cycles in pgm_solver._backbone_classes(me):
            edges = backbone.edge_ids()
            witnesses = [(frozenset(sub), pgm_solver._odd_degree(backbone, sub))
                         for size in range(len(edges) + 1)
                         for sub in itertools.combinations(edges, size)]
            for t in range(1, 4):
                classes = [rng.getrandbits(n_host) for _ in range(t)]
                cols = [rng.getrandbits(n_host)
                        for _ in range(rng.randint(1, 3))]
                rows = [pgm_solver._TargetRow(w, classes) for w in cols]
                for key in itertools.product(range(1, t + 1), repeat=len(edges)):
                    edge_type = dict(zip(edges, key))
                    got = pgm_solver._witness_options(
                        witnesses, {eid: 1 << (t - typ) for eid, typ in edge_type.items()}, rows)
                    want = _witness_options_by_scan(witnesses, edge_type, t, cols, classes,
                                                    backbone.n)
                    if got is not None:
                        got = [[(b, target, list(odds.items())) for b, target, odds in options]
                               for options in got]
                    assert got == want, (backbone.edges(), key)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_injective_assignments_match_filtered_permutations(data):
    codomain = data.draw(st.lists(st.integers(0, 9), max_size=6, unique=True))
    size = data.draw(st.integers(0, 4))
    tests = [data.draw(st.lists(st.integers(0, j), max_size=3)) for j in range(size)]
    allowed = data.draw(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40))
    want = []
    for images in itertools.permutations(codomain, size):
        if all((images[i], images[j]) in allowed for j in range(size) for i in tests[j]):
            want.append(images)
    got = list(pgm_solver._injective_assignments(size, codomain, tests, allowed))
    assert got == want
