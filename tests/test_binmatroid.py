import collections
import itertools
import random

import pytest

from helpers import complete_graph
from spacecover import binmatroid, dual_solver, gf2, pgm_solver
from spacecover.binmatroid import (cover_search, dual_span_contains, is_cocycle, span_contains,
                                   terminal_reduction)
from spacecover.dual_solver import RecursParams
from spacecover.gf2 import Gf2Matrix, _fully_reduced, nullspace, rank, spans_all, support
from spacecover.instances import random_instance
from spacecover.multigraph import incidence_matrix
from spacecover.oracle import solve_dual_bruteforce, solve_primal_bruteforce


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
    # several terminals share one elimination: each certificate is a cocycle through its
    # own terminal inside f, and "no" leaves some terminal that no subset of f completes
    rng = random.Random(5)
    yes = no = 0
    for _ in range(2000):
        rows = rng.randrange(2, 6)
        cols = rng.randrange(3, 9)
        m = Gf2Matrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])
        t = rng.sample(range(cols), rng.randint(1, 3))
        f = [j for j in range(cols) if j not in t and rng.random() < 0.5]
        certs = dual_span_contains(m, f, t)
        if certs is not None:
            yes += 1
            assert set(certs) == set(t)
            for w, cc in certs.items():
                assert cc.verify(m)
                assert w in cc.edge_set
                assert cc.edge_set - {w} <= set(f)
                assert is_cocycle(m, cc.edge_set) is not None
        else:
            no += 1
            assert any(all(is_cocycle(m, set(sub) | {w}) is None
                           for size in range(len(f) + 1)
                           for sub in itertools.combinations(f, size))
                       for w in t)
    # the draws are fixed, and each verdict is checked above, so these only pin that both
    # branches run often
    assert (yes, no) == (786, 1214)


def _packing_input(inst):
    """(space, terminal mask): the rows of A in the primal mode, the kernel of A in the dual."""
    a = inst.a_matrix
    space = a.row_bits if inst.mode == "primal" else nullspace(a)
    return space, sum(1 << e for e in inst.terminals)


def _form(space, terms, refused=0):
    """The root form of ``space``: its rows with ``refused`` cleared, fully reduced."""
    return _fully_reduced((w & ~refused for w in space), ~terms)


def _refutation(space, terms, budget, refused=0):
    """The packing bound's witnesses on the root form of ``space`` when they refute, or None."""
    found, refuted = binmatroid._packing(_form(space, terms, refused), terms, budget)
    return found if refuted else None


def _search(space, terms, budget, refused=0):
    return cover_search(_form(space, terms, refused), terms, budget)


@pytest.mark.parametrize("mode", ["primal", "dual"])
def test_packing_refutation_never_refutes_a_yes_row(mode):
    rng = random.Random(26 if mode == "primal" else 62)
    refuted = no_rows = 0
    for _ in range(1000):
        inst = random_instance(mode, rng.randint(3, 9), rng.randint(3, 12), rng.randint(0, 2),
                               rng.randint(1, 3), rng.randint(0, 3), rng)
        witnesses = _refutation(*_packing_input(inst), inst.k)
        oracle = solve_primal_bruteforce if mode == "primal" else solve_dual_bruteforce
        if oracle(inst) is None:
            no_rows += 1
            refuted += witnesses is not None
        else:
            assert witnesses is None
    # the bound decides most "no" rows at these sizes
    assert refuted > 0.9 * no_rows


@pytest.mark.parametrize("mode", ["primal", "dual"])
def test_packing_witnesses_are_disjoint_and_lie_in_the_space(mode):
    rng = random.Random(2464)
    refuted = 0
    for _ in range(40):
        n = rng.randint(24, 64)
        inst = random_instance(mode, n, 2 * n, rng.randint(0, 2), rng.randint(1, 3),
                               rng.randint(2, 4), rng)
        a = inst.a_matrix
        space, terms = _packing_input(inst)
        witnesses = _refutation(space, terms, inst.k)
        if witnesses is None:
            continue
        refuted += 1
        for x in witnesses:
            assert x & terms
            if mode == "primal":
                assert spans_all(a.row_bits, [x])
            else:
                assert not any((row & x).bit_count() % 2 for row in a.row_bits)
        rests = [x & ~terms for x in witnesses]
        assert all(not r & s for r, s in itertools.combinations(rests, 2))
        # more witnesses than the budget, or one whose terminal no non-terminal set spans
        assert len(witnesses) > inst.k or not rests[-1]
    assert refuted >= 10


def test_packing_refutation_drops_refused_bits():
    # three parallel edges, terminal 0: the kernel holds the circuits {0, 1} and {0, 2}
    space = [0b011, 0b101]
    assert _refutation(space, 0b001, 2) is None
    assert _refutation(space, 0b001, 1) == [0b011, 0b101]
    # with edge 1 or edge 2 refused, one circuit has no candidate left
    for refused in (0b010, 0b100):
        assert _refutation(space, 0b001, 2, refused=refused) == [0b001]


def test_form_updates_match_a_fresh_reduction():
    # random contractions and refusals of random spaces: after each step the updated form
    # is the fresh reduction of the same subspace, whose raw vectors are tracked apart,
    # and each pivot lies in its own row only. The tree never updates a form that holds
    # a row of terminal bits only (its bound refutes), so a sequence stops there.
    rng = random.Random(40)
    steps = stopped = checks = agree = 0
    for _ in range(1000):
        n = rng.randint(3, 12)
        terminals = sum(1 << j for j in rng.sample(range(n), rng.randint(1, 3)))
        raw = [rng.getrandbits(n) for _ in range(rng.randint(1, 8))]
        rows, refused = _fully_reduced(raw, ~terminals), 0
        for _ in range(rng.randint(1, 6)):
            cands = [j for j in range(n) if not (terminals | refused) >> j & 1]
            if not cands:
                break
            bit = 1 << rng.choice(cands)
            if rng.random() < 0.5:
                rows = binmatroid._contract(rows, bit, terminals)
                held = [i for i, w in enumerate(raw) if w & bit]
                if held:
                    top = raw.pop(held[0])
                    raw = [w ^ top if w & bit else w for w in raw]
            else:
                rows = binmatroid._refuse(rows, bit, terminals)
                raw, refused = [w & ~bit for w in raw], refused | bit
            steps += 1
            fresh = _fully_reduced(raw, ~terminals)
            if any(not w & ~terminals for w in fresh):
                assert any(not w & ~terminals for w in rows)
                stopped += 1
                break
            assert set(rows) == set(fresh)
            pivots = [(w & ~terminals) & -(w & ~terminals) for w in rows]
            assert all(sum(1 for w in rows if w & p) == 1 for p in pivots)
            # each row plus its predecessor: raw vectors whose fresh reduction keeps the
            # form's order, so the bound read off the form is the bound on their own form;
            # on the tracked raw vectors a tie between witnesses may fall the other way
            mixed = [w ^ rows[i - 1] if i else w for i, w in enumerate(rows)]
            for budget in range(4):
                found, refuted = binmatroid._packing(rows, terminals, budget)
                want = _refutation(mixed, terminals, budget)
                assert (found if refuted else None) == want
                checks += 1
                agree += (want is None) == (_refutation(raw, terminals, budget) is None)
    assert steps >= 2000 and stopped >= 400
    assert agree >= 0.99 * checks


@pytest.mark.parametrize("mode", ["primal", "dual"])
def test_cover_search_root_is_the_packing_bound(mode):
    rng = random.Random(33 if mode == "primal" else 34)
    for _ in range(300):
        inst = random_instance(mode, rng.randint(3, 12), rng.randint(3, 20), rng.randint(0, 2),
                               rng.randint(1, 3), rng.randint(0, 4), rng)
        space, terms = _packing_input(inst)
        search = _search(space, terms, inst.k)
        assert search.packing == _refutation(space, terms, inst.k)
        if search.packing is not None:
            assert search.refuted and search.nodes == 1


@pytest.mark.parametrize("mode", ["primal", "dual"])
def test_cover_search_matches_oracle(mode):
    rng = random.Random(27 if mode == "primal" else 72)
    by_tree = nodes = 0
    for _ in range(1500):
        inst = random_instance(mode, rng.randint(3, 9), rng.randint(3, 12), rng.randint(0, 2),
                               rng.randint(1, 3), rng.randint(0, 4), rng)
        search = _search(*_packing_input(inst), inst.k)
        oracle = solve_primal_bruteforce if mode == "primal" else solve_dual_bruteforce
        want = oracle(inst)
        # no row this small reaches the node cap, so the tree decides every one
        assert search.refuted != (search.cover is not None)
        assert search.refuted == (want is None)
        if want is not None:
            contains = span_contains if mode == "primal" else dual_span_contains
            assert contains(inst.a_matrix, support(search.cover), inst.terminals) is not None
            assert search.cover.bit_count() == len(want[0])
        by_tree += search.refuted and search.packing is None
        nodes += search.nodes
    assert by_tree >= 10
    # a tree whose nodes ignored their refused elements would still decide every
    # row, but its children would overlap and it would visit more nodes; the
    # count includes the nodes that search on for a smaller cover
    assert nodes == {"primal": 2732, "dual": 2579}[mode]


@pytest.mark.parametrize("mode", ["primal", "dual"])
def test_node_cap_bounds_every_search_and_the_guesses_decide_past_it(mode, monkeypatch):
    # refuted nodes count towards the cap as well; a row the tree leaves undecided
    # goes to the guesses, which are exact
    monkeypatch.setattr(binmatroid, "SEARCH_NODE_CAP", 5)
    searches = []

    def recorded(*args):
        searches.append(cover_search(*args))
        return searches[-1]

    monkeypatch.setattr(binmatroid, "cover_search", recorded)
    solve = pgm_solver.solve if mode == "primal" else dual_solver.solve
    oracle = solve_primal_bruteforce if mode == "primal" else solve_dual_bruteforce
    guessed = 0
    for seed in range(300):
        rng = random.Random(seed)
        inst = random_instance(mode, rng.randint(4, 12), rng.randint(6, 30), rng.randint(0, 2),
                               rng.randint(1, 3), rng.randint(1, 4), rng)
        stats = {}
        got = solve(inst, stats=stats)
        # the tree's own answers are checked against the oracle above; the
        # rows past the cap are the ones whose path this cap changes
        if "guesses" in stats:
            assert (got is None) == (oracle(inst) is None)
            guessed += stats.get("search") == 5
    assert max(search.nodes for search in searches) == 5
    assert sum(not search.refuted and search.cover is None for search in searches) >= 10
    assert guessed >= 10


@pytest.mark.parametrize("mode", ["primal", "dual"])
def test_a_solve_eliminates_the_space_once(mode, monkeypatch):
    # the terminal reduction fully reduces the space once, for the tree's root form, and
    # reads the basis off one echelon of that form; the search eliminates nothing, and a
    # dual solve with recursion parameters builds no form. Nothing transposes a matrix
    # but the guesses: the certificates read their columns off the rows
    calls = collections.Counter()

    def counted(module, name):
        real = getattr(module, name)

        def count(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, count)

    for name in ("_fully_reduced", "_echelon"):
        counted(binmatroid, name)
    counted(gf2, "_transposed")
    solve = pgm_solver.solve if mode == "primal" else dual_solver.solve
    rng = random.Random(41)
    searched = untransposed = 0
    for _ in range(100):
        inst = random_instance(mode, rng.randint(3, 9), rng.randint(3, 12), rng.randint(0, 2),
                               rng.randint(1, 3), rng.randint(0, 4), rng)
        calls.clear()
        stats = {}
        got = solve(inst, stats=stats)
        assert (calls["_fully_reduced"], calls["_echelon"]) == (1, 1)
        if "guesses" not in stats:
            assert calls["_transposed"] == 0
            untransposed += 1
        searched += "search" in stats
        if mode == "dual":
            calls.clear()
            dual_solver.solve(inst, params=RecursParams())
            assert (calls["_fully_reduced"], calls["_echelon"]) == (0, 1)
    assert searched >= 20 and untransposed >= 50


def _reduction_rows(mode, count, seed):
    """Random rows, alternately dense multigraphs (many parallel edges) and sparse ones
    (paths and few cycles, so many series pairs), with 1-4 terminals."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 2:
            n, m = rng.randint(2, 5), rng.randint(6, 12)
        else:
            n = rng.randint(4, 10)
            m = rng.randint(n - 1, n + 2)
        yield random_instance(mode, n, m, rng.randint(0, 2), rng.randint(1, 4),
                              rng.randint(0, 4), rng)


@pytest.mark.parametrize("mode", ["primal", "dual"])
def test_terminal_reduction_matches_references(mode):
    # each field against a plain reference on the space's columns, and the tree on the
    # root form and the clamp against the oracle's verdict and least |F|
    parallel = clamped = no_rows = 0
    for inst in _reduction_rows(mode, 400, 39 if mode == "primal" else 93):
        space, terms = _packing_input(inst)
        cols = [sum(((row >> j) & 1) << i for i, row in enumerate(space))
                for j in range(inst.a_matrix.cols)]
        red = terminal_reduction(inst, space)
        term_cols = [cols[e] for e in inst.terminals]
        nonterm = inst.nonterminal_edges()
        assert len(red.basis) == rank(Gf2Matrix(len(term_cols), len(space), term_cols))
        assert list(red.basis) == sorted(red.basis) and set(red.basis) <= set(inst.terminals)
        assert not red.basis or spans_all([cols[e] for e in red.basis], term_cols)
        assert red.no == (len(red.basis) > inst.k)
        ranked = rank(Gf2Matrix(len(nonterm), len(space), [cols[j] for j in nonterm]))
        assert red.budget == min(inst.k, ranked)
        assert red.form == _form(space, terms)
        assert terminal_reduction(inst, space, tree=False) == \
            red._replace(form=None, budget=inst.k)
        oracle = solve_primal_bruteforce if mode == "primal" else solve_dual_bruteforce
        want = oracle(inst)
        if red.no:
            assert want is None
            continue
        search = _search(space, terms, red.budget)
        assert search.refuted == (want is None)
        if want is not None:
            assert search.cover.bit_count() == len(want[0])
        parallel += len({cols[j] for j in nonterm}) < len(nonterm)
        clamped += red.budget < inst.k
        no_rows += want is None
    assert parallel >= 100 and clamped >= 20 and no_rows >= 50


def test_chain_instance_keeps_one_edge_per_parallel_class_and_the_tree_on_it_agrees():
    # the chain instance keeps the lowest non-terminal edge of each class of equal A
    # columns and the basis; a least F holds at most one edge per class, so the tree on
    # it and the tree on A agree on the verdict and the least |F|, though A's tree
    # branches on the copies as well
    rng = random.Random(339)
    dependent = parallel = covers = 0
    for i in range(300):
        n = rng.randint(2, 8)
        inst = random_instance("primal", n, rng.randint(n, 3 * n), rng.randint(0, 2),
                               rng.randint(2, 4), rng.randint(1, 4), rng)
        red = pgm_solver.reduce_terminals(inst)
        if red.no or not red.basis:
            continue
        chain, keep = pgm_solver._chain_instance(inst, red)
        nonterm = inst.nonterminal_edges()
        lowest = {e for e in nonterm
                  if all(inst.a_column(d) != inst.a_column(e) for d in nonterm if d < e)}
        assert {keep[e] for e in chain.nonterminal_edges()} == lowest
        assert tuple(keep[e] for e in chain.terminals) == red.basis and chain.k == red.budget
        got = _search(*_packing_input(inst), red.budget)
        want = _search(*_packing_input(chain), chain.k)
        assert (got.refuted, got.packing is None, got.cover is None) == \
               (want.refuted, want.packing is None, want.cover is None)
        if got.cover is not None:
            assert got.cover.bit_count() == want.cover.bit_count()
            covers += 1
        dependent += len(red.basis) < len(inst.terminals)
        parallel += len(lowest) < len(nonterm)
    assert dependent >= 20 and parallel >= 100 and covers >= 50
