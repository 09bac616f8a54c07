import itertools
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import answer_size, primal_corpus, relabelled
from spacecover import binmatroid, pgm_solver
from spacecover.gf2 import Gf2Matrix, distinct_columns, support
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
        raise AssertionError("vertex-map search on a repeated call")

    monkeypatch.setattr(pgm_solver, "_vertex_maps", no_search)
    for (k, t), shapes in want.items():
        assert _backbone_shapes(k, t) == shapes, (k, t)


def test_four_edge_catalog_holds_least_labellings():
    shapes = [(g.n, tuple(e for _, e in g.edges())) for g, _cycles in pgm_solver._backbone_classes(4)]
    least = [(n, min(tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
                     for p in itertools.permutations(range(n)))) for n, edges in shapes]
    assert least == shapes
    assert len(set(least)) == len(shapes) == 79   # OEIS A050535
    assert shapes == sorted(shapes)


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
    assert red.basis == (0,)
    assert not red.no
    # the two duplicate non-terminal columns: the chain instance keeps the lower, edge 2,
    # and drops edge 3
    chain, keep = pgm_solver._chain_instance(inst, red)
    assert [keep[e] for e in chain.nonterminal_edges()] == [2]


def test_reduce_terminals_immediate_no():
    g = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    inst = PrimalInstance(g, Gf2Matrix(3, 3), [0, 1], 1)
    red = reduce_terminals(inst)
    assert red.no
    assert pgm_solver.solve(inst) is None


def test_solve_empty_terminal_basis():
    # a loop terminal with P = 0 has the zero column: spanned by the empty set
    g = MultiGraph(2, [(0, 0), (0, 1)])
    inst = PrimalInstance(g, Gf2Matrix(2, 2), [0], 1)
    res = pgm_solver.solve(inst)
    assert res is not None
    f, cert = res
    assert f == frozenset()
    assert cert.verify(inst.a_matrix)


def _chain_instance(inst):
    """The guess chain's instance for ``inst``, or None when the reduction leaves it no guess."""
    red = reduce_terminals(inst)
    return None if red.no or not red.basis else pgm_solver._chain_instance(inst, red)[0]


def _assert_matches_oracle(inst, got):
    want = solve_primal_bruteforce(inst)
    assert (got is None) == (want is None)
    if got is not None:
        f, cert = got
        assert len(f) <= inst.k
        assert not set(f) & set(inst.terminals)
        assert cert.verify(inst.a_matrix)


def test_solve_matches_oracle_small_corpus():
    guesses = refuted = tree_no = tree_yes = nodes = 0
    for inst in primal_corpus(80, seed=101):
        stats = {}
        got = pgm_solver.solve(inst, stats=stats)
        _assert_matches_oracle(inst, got)
        if got is not None:
            assert len(got[0]) == len(solve_primal_bruteforce(inst)[0])
        if "packing" in stats:
            assert got is None and "guesses" not in stats and "search" not in stats
            refuted += 1
        elif "search" in stats and "guesses" not in stats:
            tree_no += got is None
            tree_yes += got is not None
        guesses += stats.get("guesses", 0)
        nodes += stats.get("search", 0)
    # the packing bound refutes these rows before any search; the tree decides
    # every other row with a nonempty terminal basis, so no guess is built
    assert refuted == 18
    assert (tree_no, tree_yes) == (1, 23)
    assert nodes == 84
    assert guesses == 0


def test_rows_past_the_node_cap_reach_the_guess_chain(monkeypatch):
    monkeypatch.setattr(binmatroid, "SEARCH_NODE_CAP", 1)
    for inst in primal_corpus(80, seed=101):
        stats = {}
        _assert_matches_oracle(inst, pgm_solver.solve(inst, stats=stats))
        if "search" in stats:
            assert stats["search"] == 1 and "guesses" in stats


def test_empty_terminal_basis_answers_without_a_search_or_guess():
    # the terminal is a loop, so its column of A is zero and F = ∅ spans it
    inst = PrimalInstance(MultiGraph(2, [(0, 1), (1, 1)]), Gf2Matrix(2, 2), [1], 0)
    stats = {}
    f, cert = pgm_solver.solve(inst, stats=stats)
    assert f == frozenset() and stats == {}
    assert cert.parts == {1: frozenset()} and cert.verify(inst.a_matrix)


def test_a_yes_row_the_tree_decides_never_calls_the_fallback(monkeypatch):
    # a triangle: the other two edges cover terminal 0
    inst = PrimalInstance(MultiGraph(3, [(0, 1), (1, 2), (0, 2)]), Gf2Matrix(3, 3), [0], 2)

    def no_fallback(*args):
        raise AssertionError("the guess chain ran on a row the tree decides")

    monkeypatch.setattr(pgm_solver, "_cover_by_guesses", no_fallback)
    stats = {}
    f, cert = pgm_solver.solve(inst, stats=stats)
    assert f == frozenset({1, 2}) and cert.verify(inst.a_matrix)
    assert stats["search"] > 1 and "guesses" not in stats


def test_guess_chain_matches_oracle_small_corpus():
    # every row past the terminal reduction, refuted by the packing bound or not; with
    # no form the driver skips the tree and certifies the F's the chain yields
    stats = {}
    for inst in primal_corpus(80, seed=101):
        red = reduce_terminals(inst)
        if red.no or not red.basis:
            continue
        got = binmatroid.default_solve(inst, binmatroid.span_contains, red._replace(form=None),
                                       lambda: pgm_solver._cover_by_guesses(inst, red, stats),
                                       stats)
        _assert_matches_oracle(inst, got)
    assert stats["guesses"] == 120


def test_solve_matches_oracle_at_budget_four():
    rng = random.Random(404)
    verdicts = []
    for _ in range(30):
        inst = random_instance("primal", rng.randint(6, 10), rng.randint(10, 18),
                               rng.randint(0, 2), rng.randint(1, 3), 4, rng)
        got = pgm_solver.solve(inst)
        assert (got is None) == (solve_primal_bruteforce(inst) is None)
        verdicts.append(got is not None)
    assert 0 < sum(verdicts) < len(verdicts)


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


def _bundle_of(backbone, eid):
    return [e for e in backbone.edge_ids()
            if sorted(backbone.endpoints(e)) == sorted(backbone.endpoints(eid))]


def test_pin_enumeration_with_loops_and_parallel_edges():
    # a tripled edge (one copy reversed, one a terminal), one loop at 0, two at 1;
    # every non-terminal edge has its own P column, so no edge is deduplicated
    g = MultiGraph(3, [(0, 1), (1, 0), (0, 1), (0, 0), (1, 1), (1, 1), (1, 2), (2, 0)])
    p = Gf2Matrix.from_strings(["01110010", "00010010", "11001001"])
    inst = _chain_instance(PrimalInstance(g, p, [2], 3))
    assert inst.graph.num_edges == 8 and inst.terminals == (2,)
    guesses = list(pgm_solver.build_pattern_instances(inst))
    want = {(ctx.backbone, tuple(ctx.f.items()), tuple(ctx.f_e.items()))
            for _pci, ctx in _reference_pattern_instances(inst)}
    got = {(ctx.backbone, tuple(ctx.f.items()), tuple(ctx.f_e.items())) for _pci, ctx in guesses}
    assert got == want
    for _pci, ctx in guesses:
        # f and f_E are f* and f*_E on the extra edges, and the scan offers that pin
        assert ctx.f == {v: ctx.f_star[v] for v in ctx.f}
        assert ctx.f_e == {eid: ctx.f_star_e[eid] for eid in ctx.extra}
        assert (ctx.f, ctx.f_e) in _pin_enumeration_by_scan(inst, ctx.backbone, list(ctx.extra))
    # some guess pins an extra loop together with an extra edge of a parallel pair
    assert any(any(ctx.backbone.is_loop(eid) for eid in ctx.extra)
               and any(not ctx.backbone.is_loop(eid) and len(_bundle_of(ctx.backbone, eid)) > 1
                       for eid in ctx.extra)
               for _pci, ctx in guesses)


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


def _edge_group_by_search(h):
    """Every edge permutation of h: a vertex permutation keeping its edge multiset, then each
    parallel bundle sent onto its image bundle in every order (entry e is e's image)."""
    bundles = {}
    for eid, (u, v) in h.edges():
        bundles.setdefault(frozenset((u, v)), []).append(eid)
    group = set()
    for perm in itertools.permutations(range(h.n)):
        moves = [(es, bundles.get(frozenset(perm[x] for x in pair), [])) for pair, es in bundles.items()]
        if any(len(es) != len(to) for es, to in moves):
            continue
        for images in itertools.product(*(itertools.permutations(to) for _es, to in moves)):
            pi = [None] * h.num_edges
            for (es, _to), img in zip(moves, images):
                for e, x in zip(es, img):
                    pi[e] = x
            group.add(tuple(pi))
    return group


def _orbit_minima(backbone, t):
    """The least typing of each orbit under the searched group, ascending."""
    group = _edge_group_by_search(backbone)
    return sorted({min(tuple(tau[e] for e in pi) for pi in group)
                   for tau in itertools.product(range(1, t + 1), repeat=backbone.num_edges)})


def _parallel_edges_differ(backbone, tau):
    return all(tau[a] != tau[b] for a in backbone.edge_ids() for b in _bundle_of(backbone, a)
               if a != b)


def test_canonical_typings_are_least_of_each_orbit():
    # the chain's typings: the orbit minima whose parallel edges differ in type
    cases = [(me, t) for me in (1, 2, 3) for t in (1, 2, 3)] + [(4, 1), (4, 2)]
    dropped = 0
    for me, t in cases:
        for backbone, _cycles in pgm_solver._backbone_classes(me):
            assert pgm_solver._edge_automorphisms(backbone) == \
                sorted(_edge_group_by_search(backbone)), backbone.edges()
            minima = _orbit_minima(backbone, t)
            want = [tau for tau in minima if _parallel_edges_differ(backbone, tau)]
            assert list(pgm_solver._canonical_typings(backbone, t)) == want, \
                (backbone.edges(), t)
            dropped += len(minima) - len(want)
    assert dropped > 0


def _reference_pattern_instances(inst):
    """The guess chain without its prunes, in the chain's emission order.

    Per backbone, the pins come from a scan of the host edges. Per typing
    (the least of each orbit under the searched group, with every type on a
    host edge of the same kind), each parity combination collects every
    (pin, D, f*) in turn and emits them sorted as the chain does: by the
    index of each terminal's odd set, then by the images of sorted D.
    """
    t, types = edge_types(inst.p)
    classes, _ = distinct_columns(inst.p)
    type_of = {eid: types[eid] for eid in inst.graph.edge_ids()}
    term_set = set(inst.terminals)
    edge_by_sig = {}
    host_types = {True: set(), False: set()}
    for ge in inst.graph.edge_ids():
        if ge not in term_set:
            x, y = inst.graph.endpoints(ge)
            edge_by_sig.setdefault((min(x, y), max(x, y), type_of[ge]), ge)
            host_types[x == y].add(type_of[ge])
    for backbone in enumerate_backbones(inst.k, t):
        if backbone.num_edges > inst.k or backbone.n > inst.graph.n:
            continue
        forest = frozenset(spanning_forest(backbone))
        extra = [eid for eid in backbone.edge_ids() if eid not in forest]
        subsets = [frozenset(sub) for size in range(backbone.num_edges + 1)
                   for sub in itertools.combinations(backbone.edge_ids(), size)]
        pins = list(_pin_enumeration_by_scan(inst, backbone, extra))
        for tau in _orbit_minima(backbone, t):
            if any(typ not in host_types[backbone.is_loop(eid)] for eid, typ in enumerate(tau)):
                continue
            per_term = {}
            for w in inst.terminals:
                opts = {}
                for sub in subsets:
                    b = [0] * t
                    for eid in sub:
                        b[tau[eid] - 1] ^= 1
                    b = tuple(b)
                    odd = pgm_solver._odd_degree(backbone, sub)
                    target = support(terminal_target_vertices(inst.a_column(w), b, classes))
                    if len(odd) == len(target) <= backbone.n:
                        opts.setdefault(b, []).append((sub, odd, target))
                per_term[w] = opts
            if not all(per_term.values()):
                continue
            ell = {eid: tau[eid] for eid in sorted(forest)}
            for h_combo in itertools.product(*(sorted(per_term[w]) for w in inst.terminals)):
                h = dict(zip(inst.terminals, h_combo))
                found = []
                for f, f_e in pins:
                    if all(type_of[f_e[eid]] == tau[eid] for eid in extra):
                        found.extend(_reference_expand(inst, backbone, forest, extra, f, f_e, ell,
                                                       h, per_term, tau, type_of, edge_by_sig))
                found.sort(key=lambda item: item[0])
                for _key, guess in found:
                    yield guess


def _reference_expand(inst, backbone, forest, extra, f, f_e, ell, h, per_term,
                      tau, type_of, edge_by_sig):
    """Every (sort key, guess) of one pin and parity choice, each (D, f*) checked by a full scan."""
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
                    f_star_e[eid] = f_e.get(eid, edge_by_sig.get((min(x, y), max(x, y), tau[eid])))
            if None in f_star_e.values() or len(set(f_star_e.values())) != len(f_star_e):
                continue
            e_subsets = {}
            odd_index = []
            for w in inst.terminals:
                odds = list(dict.fromkeys(odd for _sub, odd, _target in per_term[w][h[w]]))
                for sub, odd, target in per_term[w][h[w]]:
                    if odd <= d and frozenset(f_star[v] for v in odd) == target:
                        e_subsets[w] = sub
                        odd_index.append(odds.index(odd))
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
                ell_h={eid: tau[eid] for eid in pattern.edge_ids()}, u=d, f=f_star)
            key = (tuple(odd_index), tuple(f_star[v] for v in sorted(d)))
            yield key, (pci, ctx)


def _guess_record(pci, ctx):
    """Every field of a guess, dicts as item lists so that their order counts too.

    The host is the one the guess sees: its edges and labels minus the excluded edges.
    """
    def graph(g):
        return g.n, g.edges()

    host = [(ge, ends) for ge, ends in pci.g.edges() if ge not in pci.excluded]
    return (pci.g.n, host, [(ge, pci.ell_g[ge]) for ge, _ends in host],
            graph(pci.h), list(pci.ell_h.items()), pci.u, list(pci.f.items()),
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
    inst = _chain_instance(PrimalInstance(MultiGraph(n, edges), Gf2Matrix(n, len(edges), row_bits),
                                          terminals, k))
    assume(inst is not None)
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
        inst = _chain_instance(PrimalInstance(MultiGraph(n, edges), Gf2Matrix(n, m, row_bits),
                                              terminals, 3))
        if inst is not None:
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


def _witness_options_by_scan(backbone, edge_type, t, terminal_cols, classes, host):
    """Per terminal, its choices by a scan of every subset, or None: the options before grouping.

    ``host`` lists (x, y, type) of each host edge. An odd set counts only
    when each backbone edge with both ends in it has a host edge of its type
    with both ends in the target, a loop for a loop and a non-loop otherwise.
    """
    edges = backbone.edge_ids()
    choices = []
    for w in terminal_cols:
        opts = {}
        for size in range(len(edges) + 1):
            for sub in itertools.combinations(edges, size):
                b = [0] * t
                for eid in sub:
                    b[edge_type[eid] - 1] ^= 1
                b = tuple(b)
                odd = pgm_solver._odd_degree(backbone, sub)
                target = support(terminal_target_vertices(w, b, classes))
                if len(odd) != len(target) or len(target) > backbone.n:
                    continue
                if not all(any(typ == edge_type[eid] and x in target and y in target and
                               (x == y) == (u == v) for x, y, typ in host)
                           for eid, (u, v) in backbone.edges() if u in odd and v in odd):
                    continue
                opts.setdefault(b, (target, {}))[1].setdefault(odd, frozenset(sub))
        if not opts:
            return None
        choices.append([(b, opts[b][0], list(opts[b][1].items())) for b in sorted(opts)])
    return choices


def _witness_options_by_chain(backbone, edge_type, t, terminal_cols, classes, host):
    """``_witness_options`` on the same input, vertex sets unpacked as in the scan."""
    host_slots = {((1 << x) | (1 << y), pgm_solver._slot(typ, x == y)) for x, y, typ in host}
    rows = [pgm_solver._TargetRow(w, classes, host_slots) for w in terminal_cols]
    tau = [edge_type[eid] for eid in backbone.edge_ids()]
    loops = [backbone.is_loop(eid) for eid in backbone.edge_ids()]
    got = pgm_solver._witness_options(pgm_solver._class_plan(backbone)[3], tau, loops, t, rows)
    if got is None:
        return None
    return [[(b, support(target), [(support(odd), sub) for odd, sub in odds.items()])
             for b, target, odds in options] for options in got]


def test_witness_options_match_plain_scan():
    rng = random.Random(11)
    n_host = 5
    for me in range(1, 4):
        for backbone, _cycles in pgm_solver._backbone_classes(me):
            for t in range(1, 4):
                classes = [rng.getrandbits(n_host) for _ in range(t)]
                cols = [rng.getrandbits(n_host)
                        for _ in range(rng.randint(1, 3))]
                host = [(x, x if rng.random() < 0.3 else rng.randrange(n_host),
                         rng.randint(1, t))
                        for x in (rng.randrange(n_host) for _ in range(rng.randint(0, 8)))]
                for key in itertools.product(range(1, t + 1), repeat=backbone.num_edges):
                    edge_type = dict(zip(backbone.edge_ids(), key))
                    args = (backbone, edge_type, t, cols, classes, host)
                    assert _witness_options_by_chain(*args) == _witness_options_by_scan(*args), \
                        (backbone.edges(), key, host)


def test_witness_options_need_a_loop_inside_the_target_for_a_loop():
    # a loop and an edge at one vertex: both edges form the only witness, odd set {0, 1}
    backbone = next(g for g, _cycles in pgm_solver._backbone_classes(2)
                    if g.n == 2 and sorted(map(g.is_loop, g.edge_ids())) == [False, True])
    edge_type = {0: 1, 1: 1}
    # the terminal's target is {0, 1} under parity (0,) and {0, 1, 2} under (1,)
    args = (backbone, edge_type, 1, [0b011], [0b100])
    for loop, kept in ((None, False), ((2, 2, 1), False), ((1, 1, 1), True)):
        host = [(0, 1, 1)] + ([loop] if loop else [])
        want = [[((0,), frozenset({0, 1}), [(frozenset({0, 1}), frozenset({0, 1}))])]]
        assert _witness_options_by_scan(*args, host) == (want if kept else None), loop
        assert _witness_options_by_chain(*args, host) == (want if kept else None), loop


def _grouped_witness_options(witnesses, edge_bit, edge_slot, rows):
    """The witness options by one grouping pass over every subset before any terminal is read.

    The chain's earlier form, kept as the reference of its terminal-first
    scan: the subsets are grouped by (parity mask, |O|), each odd set keeping
    its first subset and its needed slots, and a terminal then reads, per
    mask, the group at the size of its target.
    """
    groups = {}
    for sub, _bits, odd, _size, inside in witnesses:
        mask = 0
        for eid in sub:
            mask ^= edge_bit[eid]
        odds = groups.setdefault((mask, odd.bit_count()), {})
        if odd not in odds:
            need = 0
            for eid in inside:
                need |= edge_slot[eid]
            odds[odd] = sub, need
    masks = sorted({mask for mask, _size in groups})
    choices = []
    for row in rows:
        options = []
        for mask in masks:
            b, target, inner = row[mask]
            odds = groups.get((mask, target.bit_count()))
            if odds is not None:
                kept = {odd: sub for odd, (sub, need) in odds.items() if not need & ~inner}
                if kept:
                    options.append((b, target, kept))
        if not options:
            return None
        choices.append(options)
    return choices


def _ordered(choices):
    """Choices with each odd set -> subset map as an item list, so that its order counts."""
    if choices is None:
        return None
    return [[(b, target, list(odds.items())) for b, target, odds in options]
            for options in choices]


def test_witness_scan_matches_grouped_reference():
    rng = random.Random(31)
    backbones = [g for me in (1, 2, 3) for g, _cycles in pgm_solver._backbone_classes(me)]
    seen = {"none": 0, "some": 0, "two odd sets": 0, "inner slots": 0}
    for _ in range(3000):
        backbone = rng.choice(backbones)
        t, n_host = rng.randint(1, 3), rng.randint(3, 6)
        classes = [rng.getrandbits(n_host) for _ in range(t)]
        host_slots = set()
        for _ in range(rng.randint(0, 10)):
            x = rng.randrange(n_host)
            y = x if rng.random() < 0.3 else rng.randrange(n_host)
            host_slots.add(((1 << x) | (1 << y), pgm_solver._slot(rng.randint(1, t), x == y)))
        cols = [rng.getrandbits(n_host) for _ in range(rng.randint(1, 3))]
        tau = [rng.randint(1, t) for _ in backbone.edge_ids()]
        witnesses = pgm_solver._class_plan(backbone)[3]
        loops = [backbone.is_loop(eid) for eid in backbone.edge_ids()]
        rows = [pgm_solver._TargetRow(w, classes, host_slots) for w in cols]
        got = pgm_solver._witness_options(witnesses, tau, loops, t, rows)
        want = _grouped_witness_options(
            witnesses, [1 << (t - typ) for typ in tau],
            [pgm_solver._slot(typ, loop) for typ, loop in zip(tau, loops)],
            [pgm_solver._TargetRow(w, classes, host_slots) for w in cols])
        assert _ordered(got) == _ordered(want), (backbone.edges(), tau, cols, classes)
        seen["none" if got is None else "some"] += 1
        if got is not None:
            seen["two odd sets"] += any(len(odds) > 1 for opts in got for _b, _t, odds in opts)
            seen["inner slots"] += any(inner for row in rows for _b, _t, inner in row.values())
    assert min(seen.values()) >= 50, seen


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_injective_assignments_match_filtered_permutations(data):
    codomain = data.draw(st.lists(st.integers(0, 9), max_size=6, unique=True))
    size = data.draw(st.integers(0, 4))
    # each position draws from a sub-list of the codomain, in codomain order
    domains = [[x for x in codomain if data.draw(st.booleans())] for _ in range(size)]
    tests = [data.draw(st.lists(st.tuples(st.integers(0, j), st.integers(1, 2)), max_size=3))
             for j in range(size)]
    allowed = data.draw(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(1, 2)),
                                max_size=60))
    want = []
    for images in itertools.permutations(codomain, size):
        if all(x in dom for x, dom in zip(images, domains)) and \
                all((images[i], images[j], label) in allowed
                    for j in range(size) for i, label in tests[j]):
            want.append(images)
    got = list(pgm_solver._injective_assignments(domains, tests, allowed))
    assert got == want


def _loop_and_pair_host(rng):
    """A random host with at least one loop and one parallel pair, r 0-2, |T| 1-3, k 1-3."""
    n = rng.randint(2, 6)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(2, 8))]
    edges += [edges[0], (edges[-1][1], edges[-1][1])]
    row_bits = [0] * n
    for _ in range(rng.randint(0, 2)):
        col_pat, row_pat = rng.getrandbits(n), rng.getrandbits(len(edges))
        for i in range(n):
            if (col_pat >> i) & 1:
                row_bits[i] ^= row_pat
    terminals = rng.sample(range(len(edges)), rng.randint(1, 3))
    return PrimalInstance(MultiGraph(n, edges), Gf2Matrix(n, len(edges), row_bits), terminals,
                          rng.randint(1, 3))


def test_minimum_matches_oracle_on_loops_and_parallel_edges():
    yes = 0
    for seed in range(1000):
        rng = random.Random(seed)
        if seed % 2 == 0:
            inst = _loop_and_pair_host(rng)
        else:
            inst = random_instance("primal", rng.randint(2, 7), rng.randint(3, 10),
                                   rng.randint(0, 2), rng.randint(1, 3), rng.randint(1, 3), rng)
        got = pgm_solver.solve(inst)
        want = solve_primal_bruteforce(inst)
        assert (got is None) == (want is None), seed
        if got is not None:
            yes += 1
            assert len(got[0]) == len(want[0]), seed
            assert got[1].verify(inst.a_matrix), seed
    assert 200 < yes < 800


def _with_parallel_copy(inst, eid):
    """inst plus a copy of edge eid with the same endpoints and the same P column."""
    g = inst.graph.copy()
    g.add_edge(*g.endpoints(eid))
    row_bits = [bits | (((bits >> eid) & 1) << inst.p.cols) for bits in inst.p.row_bits]
    return PrimalInstance(g, Gf2Matrix(g.n, inst.p.cols + 1, row_bits), inst.terminals, inst.k)


def test_relabelling_and_parallel_copies_keep_the_answer_past_the_oracle():
    # n 24-40 and m = 2n at k = 3: the oracle would enumerate at most 85,401 subsets of a
    # row, well under its SUBSET_BUDGET, but the answer size is checked against itself
    # under each change, with no oracle; five rows are yes
    for i in range(10):
        rng = random.Random(2000 + i)
        n = 24 + 16 * i // 9
        inst = random_instance("primal", n, 2 * n, 1 + i // 5, 1 + i % 2, 3, rng)
        want = answer_size(pgm_solver.solve(inst))
        assert answer_size(pgm_solver.solve(relabelled(inst, rng))) == want, i
        eid = rng.choice(inst.nonterminal_edges())
        assert answer_size(pgm_solver.solve(_with_parallel_copy(inst, eid))) == want, i
        if want is None:
            inst.k = 2
            assert pgm_solver.solve(inst) is None, i
