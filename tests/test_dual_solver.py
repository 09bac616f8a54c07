import itertools
import math
import random
import time
from dataclasses import replace

import pytest

from helpers import (all_preliminary, answer_size, complete_graph, doubled_path_dual,
                     dual_corpus, esc_from_random_dual, grid_dual, leafy_path_esc, relabelled)
from spacecover import binmatroid, cli, dual_solver, fileio
from spacecover.derand import build_universal_set
from spacecover.dual_solver import (EdgeSetCoverInstance, EscTerminal, RecursParams,
                                    _multiplicity_reduce, _required_parity, _small_case, all_keys,
                                    build_esc, contributes, is_key_solution,
                                    preliminary_partition, recurs,
                                    reduce_terminals_dual, solve_esc, vertex_types)
from spacecover.gf2 import Gf2Matrix, spans_all
from spacecover.instances import DualInstance, random_instance
from spacecover.multigraph import (MultiGraph, connected_components, is_connected,
                                  signed_components)
from spacecover.oracle import solve_dual_bruteforce


def test_vertex_types():
    p = Gf2Matrix.from_strings(["101", "101", "000"])
    t, classes = vertex_types(p)
    assert t == 2
    assert classes == [frozenset({0, 1}), frozenset({2})]


def test_contributes_and_fits_semantics():
    g = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    term = EscTerminal(0, 0, (0,), 0b100)
    inst = EdgeSetCoverInstance(g, 1, 1, {0: 0, 1: 0, 2: 0}, [term],
                                frozenset({0}))
    x = frozenset({0})
    # edge 0 crosses with flip 0 -> contributes; edge 2 crosses with flip 1 -> not
    assert contributes(0, term, x, inst)
    assert not contributes(1, term, x, inst)
    assert not contributes(2, term, x, inst)
    even, odd = (((0,),), (frozenset(),)), (((1,),), (frozenset(),))
    # X almost fits: only the terminal's own edge contributes, at the wrong parity
    assert not is_key_solution(inst, even, frozenset(), {0: x})
    assert is_key_solution(inst, odd, frozenset(), {0: x})
    # X = {} fits neither: edge 2 contributes and the terminal's own edge does not,
    # so even F = {2} leaves X short of its one blocked hit
    for key in (even, odd):
        assert not is_key_solution(inst, key, frozenset({2}), {0: frozenset()})


def test_build_esc_flip_maps():
    g = MultiGraph(2, [(0, 1), (0, 1), (0, 1)])
    p = Gf2Matrix.from_strings(["110", "000"])
    inst = DualInstance(g, p, [0], 1)
    t, _ = vertex_types(inst.p)
    assert t == 2
    esc = build_esc(inst, {0: (0, 1)})
    term = esc.terminals[0]
    assert term.edge == 0 and term.b == (0, 1)
    # parity (0,1) selects the class-2 row, which is zero: all flips are 0
    assert term.f == 0
    # parity (1,0) selects the class-1 row: bit e is edge e's flip
    esc2 = build_esc(inst, {0: (1, 0)})
    assert esc2.terminals[0].f == 0b011
    assert esc.blocked == frozenset({0})
    assert esc.g is esc2.g is inst.graph and not esc.w and not esc.pins


def test_multiplicity_reduction_keeps_k_plus_one():
    g = MultiGraph(2, [(0, 1)] * 6)
    term = EscTerminal(0, 0, (0,), 0)
    inst = EdgeSetCoverInstance(g, 2, 1, {0: 0, 1: 0}, [term], frozenset({0}))
    red = _multiplicity_reduce(inst)
    # the blocked edge survives plus k+1 = 3 of the 5 parallel free copies
    assert red.g.num_edges == 4
    assert 0 in red.g.edge_ids()
    # the terminals stay as they are: a dropped edge's flip bit is never read
    assert red.terminals is inst.terminals and g.num_edges == 6


def test_threshold_free_params_take_the_small_case(monkeypatch):
    def no_search(*args):
        raise AssertionError("a separation search ran without thresholds")

    monkeypatch.setattr(dual_solver, "good_edge_separation", no_search)
    inst = doubled_path_dual(length=16, dup_at=3, k=1)
    assert inst.graph.n == 17
    esc = build_esc(inst, {inst.terminals[0]: (1,)})
    params = RecursParams()
    table = recurs(esc, params)
    assert table[(((1,),), (frozenset(),))] is not None
    assert params.stats == {"small": 1}


def test_reduce_terminals_dual_parallel_edges():
    # two parallel terminals are dependent in the dual: one obligation survives
    g = MultiGraph(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
    inst = DualInstance(g, Gf2Matrix(3, 4), [0, 1], 1)
    red = reduce_terminals_dual(inst)
    assert red.basis == (0,)
    assert not red.no


def test_reduce_terminals_dual_immediate_no():
    g = MultiGraph(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
    inst = DualInstance(g, Gf2Matrix(3, 4), [0, 2], 1)
    red = reduce_terminals_dual(inst)
    assert len(red.basis) == 2 and red.no
    assert dual_solver.solve(inst) is None


def test_coloop_terminal_answered_directly():
    # a bridge terminal has an empty dual column: F = {} covers it
    g = MultiGraph(3, [(0, 1), (1, 2)])
    inst = DualInstance(g, Gf2Matrix(3, 2), [0], 1)
    res = dual_solver.solve(inst)
    assert res is not None
    assert res[0] == frozenset()


def _assert_matches_oracle(inst, got):
    want = solve_dual_bruteforce(inst)
    assert (got is None) == (want is None)
    if got is not None:
        f, certs = got
        assert len(f) <= inst.k
        assert not set(f) & set(inst.terminals)
        m = inst.a_matrix
        for cc in certs.values():
            assert cc.verify(m)


def test_solve_matches_oracle_small_corpus():
    guesses = refuted = tree_no = tree_yes = nodes = 0
    for inst in dual_corpus(60, seed=201):
        stats = {}
        got = dual_solver.solve(inst, stats=stats)
        if "packing" in stats:
            assert got is None and "guesses" not in stats and "search" not in stats
            refuted += 1
        elif "search" in stats and "guesses" not in stats:
            tree_no += got is None
            tree_yes += got is not None
        guesses += stats.get("guesses", 0)
        nodes += stats.get("search", 0)
        _assert_matches_oracle(inst, got)
        if got is not None:
            assert len(got[0]) == len(solve_dual_bruteforce(inst)[0])
    # the packing bound refutes 15 rows; the search tree decides every other
    # row with a nonempty terminal basis, each with a least cover
    assert refuted == 15
    assert (tree_no, tree_yes) == (0, 11)
    assert nodes == 23
    assert guesses == 0


def test_guess_loop_matches_oracle_small_corpus():
    # every row past the terminal reduction, refuted by the bound or the tree or not; with
    # no form the driver skips the tree and certifies the F's the guesses yield
    stats = {}
    for inst in dual_corpus(60, seed=201):
        red = reduce_terminals_dual(inst)
        if red.no or not red.basis:
            continue
        got = binmatroid.default_solve(
            inst, binmatroid.dual_span_contains, red._replace(form=None),
            lambda: dual_solver._cover_by_guesses(inst, red.basis, RecursParams(), stats), stats)
        _assert_matches_oracle(inst, got)
    assert stats["guesses"] == 78


def test_rows_past_the_node_cap_reach_the_parity_guesses(monkeypatch):
    monkeypatch.setattr(binmatroid, "SEARCH_NODE_CAP", 1)
    for inst in dual_corpus(60, seed=201):
        stats = {}
        _assert_matches_oracle(inst, dual_solver.solve(inst, stats=stats))
        if "search" in stats:
            assert stats["search"] == 1 and stats["guesses"] > 0


@pytest.mark.parametrize("params", [None, RecursParams(q=2, p=2, s=16)],
                         ids=["default", "q-override"])
def test_empty_terminal_basis_answers_without_a_search_or_guess(params):
    # the terminal is a bridge, so its column of the kernel is zero and F = ∅ covers it
    inst = DualInstance(MultiGraph(3, [(0, 1), (1, 2), (1, 2)]), Gf2Matrix(3, 3), [0], 0)
    stats = {}
    f, certs = dual_solver.solve(inst, params=params, stats=stats)
    assert f == frozenset() and stats == {}
    assert set(certs) == {0}
    assert all(cert.verify(inst.a_matrix) for cert in certs.values())


def test_a_yes_row_the_tree_decides_never_calls_the_fallback(monkeypatch):
    # three parallel edges, terminal 0: the other two meet both circuits through it
    inst = DualInstance(MultiGraph(2, [(0, 1), (0, 1), (0, 1)]), Gf2Matrix(2, 3), [0], 2)

    def no_fallback(*args):
        raise AssertionError("the parity guesses ran on a row the tree decides")

    monkeypatch.setattr(dual_solver, "_cover_by_guesses", no_fallback)
    stats = {}
    f, certs = dual_solver.solve(inst, stats=stats)
    assert f == frozenset({1, 2}) and set(certs) == {0}
    assert all(cert.verify(inst.a_matrix) for cert in certs.values())
    assert stats["search"] > 1 and "guesses" not in stats


@pytest.mark.parametrize("w, budgets", [(4, (1, 2, 3, 4)), (5, (1, 2, 3))])
def test_grid_rows_match_the_oracle_with_a_least_cover(w, budgets):
    # r = 0 grids with two boundary terminals. Time budget: about 0.6 s, most of
    # it the 5 x 5 oracle on the two k = 3 rows whose least cover has 3 edges
    yes = 0
    for k in budgets:
        for seed in range(4):
            inst = grid_dual(w, k, seed)
            got = dual_solver.solve(inst)
            want = solve_dual_bruteforce(inst)
            _assert_matches_oracle(inst, got)
            if got is not None:
                assert len(got[0]) == len(want[0])
                yes += 1
    assert 0 < yes < 4 * len(budgets)


@pytest.mark.parametrize("width, k, seed, limit", [
    (16, 3, 2, 1.0), (16, 4, 0, 1.0), (16, 5, 2, 1.0),
    (32, 4, 0, 3.0), (32, 4, 1, 3.0), (32, 5, 0, 3.0), (32, 5, 1, 3.0),
], ids=["3-2", "4-0", "5-2", "32x32-4-0", "32x32-4-1", "32x32-5-0", "32x32-5-1"])
def test_large_grid_rows_decide_in_the_search_tree(width, k, seed, limit):
    # on a 2-vCPU VM each 16 x 16 row (480 edges) takes at most 0.4 s and each 32 x 32 row
    # (1,984 edges) at most 0.7 s; a search that re-eliminates its space at every node
    # took 1.6-11.1 s on the 32 x 32 rows
    inst = grid_dual(width, k, seed)
    stats = {}
    start = time.perf_counter()
    got = dual_solver.solve(inst, stats=stats)
    assert time.perf_counter() - start < limit
    assert "guesses" not in stats and stats["search"] > 1
    f, certs = got
    assert len(f) <= k and not f & set(inst.terminals)
    assert set(certs) == set(inst.terminals)
    assert all(cert.verify(inst.a_matrix) for cert in certs.values())


def _subdivided(inst, eid):
    """inst with edge eid = uv replaced by uw and a new edge wv through a new vertex w.

    P's row w is zero, uw keeps uv's P column and wv gets the zero column, so row w of
    A is the cocycle {uw, wv}: the halves are in series in M, parallel in the dual
    matroid, and contracting wv gives inst back.
    """
    g = inst.graph
    u, v = g.endpoints(eid)
    ends = [(u, g.n) if e == eid else g.endpoints(e) for e in g.edge_ids()] + [(g.n, v)]
    return DualInstance(MultiGraph(g.n + 1, ends),
                        Gf2Matrix(g.n + 1, len(ends), inst.p.row_bits + [0]), inst.terminals, inst.k)


def test_relabelling_and_series_halves_keep_the_answer_past_the_oracle():
    # n 64-128 and m = 2n at k = 4 lie past the oracle's SUBSET_BUDGET, so the answer size
    # is checked against itself: under a relabelling, under a subdivided edge, whose
    # halves the dual tree branches on as two parallel elements, and, on a "no" row,
    # under a lower budget
    yes = 0
    for i in range(12):
        rng = random.Random(3000 + i)
        n = 64 + 64 * i // 11
        inst = random_instance("dual", n, 2 * n, i % 3, 1 + i % 3, 4, rng)
        want = answer_size(dual_solver.solve(inst))
        assert answer_size(dual_solver.solve(relabelled(inst, rng))) == want, i
        eid = rng.choice([e for e in inst.nonterminal_edges() if not inst.graph.is_loop(e)])
        assert answer_size(dual_solver.solve(_subdivided(inst, eid))) == want, i
        if want is None:
            inst.k = 3
            assert dual_solver.solve(inst) is None, i
        yes += want is not None
    assert 0 < yes < 12


def test_threshold_solve_runs_its_parity_guesses_past_the_packing_bound():
    # three parallel edges, terminal 0: the circuits {0, 1} and {0, 2} need two edges of F
    inst = DualInstance(MultiGraph(2, [(0, 1), (0, 1), (0, 1)]), Gf2Matrix(2, 3), [0], 1)
    stats = {}
    assert dual_solver.solve(inst, stats=stats) is None
    assert stats == {"packing": 2}
    stats = {}
    params = RecursParams(q=2, p=2 * (inst.k + 1), s=16)
    assert dual_solver.solve(inst, params=params, stats=stats) is None
    assert stats["guesses"] > 0 and "packing" not in stats


def test_solve_esc_disconnected_components():
    # the parity combine over components must agree with one small-case table
    # over the whole (disconnected) graph
    rng = random.Random(301)
    checked = 0
    for _ in range(40):
        inst = esc_from_random_dual(rng, n_max=7, m_max=7)
        if len(connected_components(inst.g)) < 2:
            continue
        got = solve_esc(inst)
        table = _small_case(inst, RecursParams(q=2, p=2, s=10 ** 6))
        root = (tuple(term.b for term in inst.terminals),
                tuple(frozenset() for _ in inst.terminals))
        want = table[root]
        assert (got is None) == (want is None)
        if got is not None:
            f_set, x_map = got
            assert len(f_set) == len(want[0]) <= inst.k
            assert is_key_solution(inst, root, f_set, x_map)
        checked += 1
    assert checked >= 10


def _drop_one_f_edge(answers):
    """``answers`` with the least edge taken out of every nonempty F."""
    return {key: ans if not ans or not ans[0] else (frozenset(sorted(ans[0])[1:]), ans[1])
            for key, ans in answers.items()}


# three parallel edges, terminal 0, k = 2: only F = {1, 2} covers it, at class parity 1;
# the disconnected row adds a component {2, 3}, which the parity DP joins
@pytest.mark.parametrize("ends, target", [([(0, 1)] * 3, "recurs"),
                                          ([(0, 1)] * 3 + [(2, 3)], "_combine_parities")],
                         ids=["connected", "disconnected"])
def test_solve_esc_raises_on_an_answer_that_fails_its_check(tmp_path, capsys, monkeypatch,
                                                            ends, target):
    g = MultiGraph(1 + max(max(e) for e in ends), ends)
    inst = DualInstance(g, Gf2Matrix(g.n, g.num_edges), [0], 2)
    path = tmp_path / "row.scpm"
    path.write_text(fileio.serialize_instance(inst), encoding="utf-8")
    esc = build_esc(inst, {0: (1,)})
    assert solve_esc(esc)[0] == frozenset({1, 2})
    assert cli.main(["solve", str(path), "--q-override", "2"]) == cli.EXIT_YES
    real = getattr(dual_solver, target)
    monkeypatch.setattr(dual_solver, target, lambda *args: _drop_one_f_edge(real(*args)))
    with pytest.raises(AssertionError, match="failed its definition check"):
        solve_esc(esc)
    capsys.readouterr()
    assert cli.main(["solve", str(path), "--q-override", "2"]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "failed its definition check" in captured.err, captured.err


def test_q_override_solves_leave_the_host_instance_unchanged():
    # build_esc shares the host graph with every guess's instance; the breakable and
    # unbreakable rows restrict it to sub-instances of their own, and the bundle of six
    # parallel edges loses copies to the multiplicity reduction
    g = complete_graph(6)
    dup = g.add_edge(0, 1)
    bundle = MultiGraph(3, [(0, 1)] * 6 + [(1, 2)])
    rows = [doubled_path_dual(length=18, dup_at=0, k=1),
            DualInstance(g, Gf2Matrix(6, g.num_edges), [dup], 1),
            _rank_one(doubled_path_dual(length=17, dup_at=6, k=1), 2),
            DualInstance(bundle, Gf2Matrix(3, bundle.num_edges), [0], 1)]
    rng = random.Random(17)
    rows += [random_instance("dual", 8, 12, 1, 2, 2, rng) for _ in range(20)]
    stats = {}
    for inst in rows:
        before = (inst.graph.n, inst.graph.edges(), list(inst.p.row_bits), inst.terminals)
        params = RecursParams(q=2, p=2 * (inst.k + 1), s=4)
        dual_solver.solve(inst, params=params)
        assert (inst.graph.n, inst.graph.edges(), list(inst.p.row_bits),
                inst.terminals) == before
        for name, count in params.stats.items():
            stats[name] = stats.get(name, 0) + count
    assert stats["breakable"] and stats["unbreakable"] and stats["small"]


def exhaustive_key_minima(inst):
    """Least |F| per key, by trying every F and every per-terminal X.

    A terminal's X is judged by is_key_solution on a one-terminal view, under
    the key that X itself induces (its class parities and its part of W).
    """
    n = inst.g.n
    free = [e for e in inst.g.edge_ids() if e not in inst.blocked]
    xs = [frozenset(v for v in range(n) if (mask >> v) & 1) for mask in range(1 << n)]
    reach = []  # (|F|, per terminal the set of (parities, X & W) some X attains)
    for size in range(inst.k + 1):
        for f_set in itertools.combinations(free, size):
            per_term = []
            for term in inst.terminals:
                one = replace(inst, terminals=[term], pins={term.tid: inst.pin(term.tid)})
                per_term.append({(inst.class_parities(x), x & inst.w) for x in xs
                                 if is_key_solution(one, ((inst.class_parities(x),),
                                                          (x & inst.w,)),
                                                    f_set, {term.tid: x})})
            reach.append((size, per_term))
    minima = {}
    for key in all_keys(inst):
        h, lr = key
        minima[key] = next((size for size, per_term in reach
                            if all((h[i], lr[i]) in per_term[i]
                                   for i in range(len(per_term)))), None)
    return minima


def test_small_case_with_boundary_and_pins_matches_exhaustive_search():
    rng = random.Random(503)
    checked = solvable = 0
    for _ in range(40):
        inst = esc_from_random_dual(rng, n_max=6, m_max=8)
        n = inst.g.n
        w = frozenset(rng.sample(range(n), rng.randrange(1, 3)))
        pins = {}
        for term in inst.terminals:
            pinned = rng.sample(range(n), rng.randrange(0, 3))
            w1 = frozenset(v for v in pinned if rng.random() < 0.5)
            pins[term.tid] = (w1, frozenset(pinned) - w1)
        inst = replace(inst, w=w, pins=pins)
        table = _small_case(inst, RecursParams())
        want = exhaustive_key_minima(inst)
        assert set(table) == set(want)
        for key, ans in table.items():
            assert (ans is None) == (want[key] is None), key
            if ans is not None:
                assert len(ans[0]) == want[key]
                assert is_key_solution(inst, key, ans[0], ans[1])
                solvable += 1
        checked += 1
    assert checked == 40 and solvable > 0


def small_case_per_key_scan(inst):
    """The small case as a scan of every terminal's options for each unsolved key."""
    inst = _multiplicity_reduce(inst)
    keys = list(all_keys(inst))
    table = {key: None for key in keys}
    unsolved = set(keys)
    nonblocked = [eid for eid in inst.g.edge_ids() if eid not in inst.blocked]
    for size in range(min(inst.k, len(nonblocked)) + 1):
        for f_sub in itertools.combinations(nonblocked, size):
            f_set = frozenset(f_sub)
            alive = [(eid, inst.g.endpoints(eid)) for eid in inst.g.edge_ids()
                     if eid not in f_set]
            per_term = []
            for term in inst.terminals:
                sides = signed_components(range(inst.g.n),
                                          [(u, v, _required_parity(eid, term))
                                           for eid, (u, v) in alive])
                if sides is None:
                    break
                options = []
                for flips in itertools.product((0, 1), repeat=len(sides)):
                    fx = frozenset(v for side, flip in zip(sides, flips)
                                   for v, c in side.items() if c ^ flip)
                    options.append((fx, inst.class_parities(fx)))
                per_term.append(options)
            else:
                for key in sorted(unsolved):
                    h, lr = key
                    choice = {}
                    for i, term in enumerate(inst.terminals):
                        l_set, r_set = lr[i], inst.w - lr[i]
                        w1, w2 = inst.pin(term.tid)
                        pick = next((fx for fx, par in per_term[i]
                                     if par == tuple(h[i]) and l_set <= fx and w1 <= fx
                                     and not (r_set & fx) and not (w2 & fx)), None)
                        if pick is None:
                            break
                        choice[term.tid] = pick
                    else:
                        table[key] = (f_set, choice)
                        unsolved.discard(key)
    return table


def _assert_matches_per_key_scan(rng, count, w_sizes, **sizes):
    """_small_case equals small_case_per_key_scan, F and every X included.

    Draws ``count`` annotated instances with a W of ``w_sizes`` (least,
    most) vertices and returns how many keys were solved.
    """
    solved = 0
    for _ in range(count):
        inst = esc_from_random_dual(rng, **sizes)
        n = inst.g.n
        w = frozenset(rng.sample(range(n), rng.randrange(w_sizes[0], w_sizes[1] + 1)))
        pins = {}
        for term in inst.terminals:
            pinned = rng.sample(range(n), rng.randrange(0, 3))
            w1 = frozenset(v for v in pinned if rng.random() < 0.5)
            pins[term.tid] = (w1, frozenset(pinned) - w1)
        inst = replace(inst, w=w, pins=pins)
        got = _small_case(inst, RecursParams())
        want = small_case_per_key_scan(inst)
        assert list(got) == list(want)
        for key, ans in got.items():
            assert (ans is None) == (want[key] is None), key
            if ans is not None:
                assert ans[0] == want[key][0]
                assert list(ans[1].items()) == list(want[key][1].items())
                solved += 1
    return solved


def test_small_case_reach_tables_match_per_key_scan():
    assert _assert_matches_per_key_scan(random.Random(907), 240, (1, 2),
                                        n_max=7, m_max=9) >= 200


def test_small_case_matches_per_key_scan_on_larger_instances():
    # up to 10 vertices, 16 edges, k = 3 and rank 2, so F of three edges
    # and several vertex classes are reached; W may be empty
    assert _assert_matches_per_key_scan(random.Random(911), 600, (0, 2), n_max=10,
                                        m_max=16, k_max=3, r_max=2) >= 200


def test_balance_words_decide_signed_components():
    # loops, parallel edges, isolated vertices and several components
    rng = random.Random(919)
    checked = balanced = 0
    for _ in range(60):
        n = rng.randrange(1, 9)
        g = MultiGraph(n + rng.randrange(0, 3))
        for _ in range(rng.randrange(0, 11)):
            u = rng.randrange(n)
            v = u if rng.random() < 0.15 else rng.randrange(n)
            g.add_edge(u, v)
            if rng.random() < 0.2:
                g.add_edge(u, v)
        if g.num_edges and rng.random() < 0.3:
            g = g.without_edges([rng.choice(g.edge_ids())])
        eids = g.edge_ids()
        parity = {eid: rng.getrandbits(1) for eid in eids}
        row, (odd,) = dual_solver._balance_words(g, [parity])
        for size in range(4):
            for f_sub in itertools.combinations(eids, size):
                sides = signed_components(range(g.n), [(*g.endpoints(eid), parity[eid])
                                                       for eid in eids if eid not in f_sub])
                assert spans_all([row[eid] for eid in f_sub], [odd]) == (sides is not None)
                checked += 1
                balanced += sides is not None
    assert checked >= 2000 and 0 < balanced < checked


def test_small_case_traverses_only_balanced_f(monkeypatch):
    # a path with edge (7, 8) tripled, one copy the terminal, at k = 2: the
    # two other copies close odd cycles with the terminal's own edge, so
    # almost every F is rejected before any traversal; the path edges lie on
    # no cycle, so the balance test runs once per subset of the two copies
    g = MultiGraph(19, [(v, v + 1) for v in range(18)])
    term = g.add_edge(7, 8)
    g.add_edge(7, 8)
    inst = DualInstance(g, Gf2Matrix(g.n, g.num_edges), [term], 2)
    esc = build_esc(inst, {term: (0,)})
    tried, traversals = [], []
    real_spans_all, real_signed = dual_solver.spans_all, dual_solver.signed_components

    def counting_spans_all(rows, words):
        tried.append(1)
        return real_spans_all(rows, words)

    def counting_signed(vertices, edges):
        traversals.append(1)
        return real_signed(vertices, edges)

    monkeypatch.setattr(dual_solver, "spans_all", counting_spans_all)
    monkeypatch.setattr(dual_solver, "signed_components", counting_signed)
    table = _small_case(esc, RecursParams())
    monkeypatch.undo()
    f_count = sum(math.comb(g.num_edges - 1, size) for size in range(3))
    assert len(tried) == 4
    assert len(traversals) <= 0.05 * f_count
    want = small_case_per_key_scan(esc)
    assert list(table) == list(want)
    assert all(table[key] == want[key] for key in want)
    assert any(ans is not None for ans in table.values())


def _shifted_esc(esc, by):
    """``esc`` on a copy of its graph whose edge ids are ``by`` higher."""
    g = MultiGraph(esc.g.n, [(0, 1)] * by + [ends for _, ends in esc.g.edges()])
    terms = [EscTerminal(term.tid, None if term.edge is None else term.edge + by, term.b,
                         term.f << by) for term in esc.terminals]
    return EdgeSetCoverInstance(g.without_edges(range(by)), esc.k, esc.t, esc.classes, terms,
                                frozenset(e + by for e in esc.blocked))


def test_breakable_split_on_shifted_edge_ids():
    # two copies of one path's ESC instance whose edge ids differ: each separation's
    # crossing edges are read as ids of the graph being split
    plain = doubled_path_dual(length=18, dup_at=0, k=1)
    params = RecursParams(q=2, p=2, s=16)
    got = dual_solver.solve(plain, params=params)
    assert (got is None) == (solve_dual_bruteforce(plain) is None)
    assert params.stats.get("breakable", 0) >= 1
    answers = 0
    for b in ((0,), (1,)):
        esc = build_esc(plain, {plain.terminals[0]: b})
        shifted = _shifted_esc(esc, 5)
        assert shifted.g.edge_ids() == [eid + 5 for eid in esc.g.edge_ids()]
        params = RecursParams(q=2, p=2, s=16)
        want = solve_esc(esc, RecursParams(q=2, p=2, s=16))
        got = solve_esc(shifted, params)
        assert params.stats.get("breakable", 0) >= 1
        if got is not None:
            got = (frozenset(e - 5 for e in got[0]), got[1])
            answers += 1
        assert got == want
    assert answers >= 1


def test_preliminary_partition_matches_bruteforce_small():
    rng = random.Random(401)
    for _ in range(30):
        inst = esc_from_random_dual(rng, n_max=7, m_max=9)
        for term in inst.terminals:
            got = preliminary_partition(inst, term)
            want = all_preliminary(inst, term)
            assert (got is None) == (not want)
            if got is not None:
                y, y_bar = got
                assert y | y_bar == frozenset(range(inst.g.n))
                assert not y & y_bar
                assert y in want or y_bar in want


def test_unbreakable_branch_on_small_clique():
    # K_6 with s=4 forces the separation check; the clique is (2,2)-unbreakable
    g = complete_graph(6)
    dup = g.add_edge(0, 1)
    inst = DualInstance(g, Gf2Matrix(6, g.num_edges), [dup], 1)
    params = RecursParams(q=2, p=2, s=4)
    got = dual_solver.solve(inst, params=params)
    want = solve_dual_bruteforce(inst)
    assert (got is None) == (want is None)
    assert params.stats.get("unbreakable", 0) >= 1


def test_recursion_below_nbig_vertices_matches_oracle():
    # q = 1 and s = 1 send graphs of fewer than nbig = (q + 2(k+1))|T|
    # vertices into the unbreakable branch, which must hand them to the
    # small case
    unbreakable = 0
    for seed in range(1300):
        rng = random.Random(seed)
        n, m, r = rng.randrange(3, 10), rng.randrange(2, 16), rng.randrange(0, 2)
        num_terms, k = rng.randrange(1, 3), rng.randrange(0, 3)
        inst = random_instance("dual", n, m, r, num_terms, k, rng)
        params = RecursParams(1, 2 * (k + 1), 1)
        got = dual_solver.solve(inst, params)
        want = solve_dual_bruteforce(inst)
        assert (got is None) == (want is None), seed
        if got is not None:
            assert all(cc.verify(inst.a_matrix) for cc in got[1].values())
        unbreakable += params.stats.get("unbreakable", 0)
    assert unbreakable


class _ForgetfulTable(dict):
    """A separation table that keeps nothing: every recursion step searches again."""

    def __setitem__(self, key, value):
        pass


def _rank_one(inst, row):
    """inst with vertex 0 on a zero P-row and every other vertex on row.

    Its two vertex classes give each terminal two flip maps, 0 and row, so
    the parity guesses of a solve build two ESC tables on the same graph.
    """
    g = inst.graph
    return DualInstance(g, Gf2Matrix(g.n, g.num_edges, [0] + [row] * (g.n - 1)),
                        inst.terminals, inst.k)


def test_separation_table_searches_each_graph_once(monkeypatch):
    searched = []
    search = dual_solver.good_edge_separation
    monkeypatch.setattr(dual_solver, "good_edge_separation",
                        lambda g, q, p: searched.append((g.n, tuple(g.edges()))) or search(g, q, p))
    g = complete_graph(6)
    dup = g.add_edge(0, 1)
    # each flip map of these solves meets the same graphs again
    cases = [(_rank_one(DualInstance(g, Gf2Matrix(6, g.num_edges), [dup], 1), 2), 4)]
    cases += [(_rank_one(doubled_path_dual(length=17, dup_at=j, k=1), 2), 16) for j in (0, 6, 12)]
    for inst, s in cases:
        runs = []
        for table in ({}, _ForgetfulTable()):
            searched.clear()
            params = RecursParams(q=2, p=2, s=s)
            params.separations = table
            runs.append((dual_solver.solve(inst, params=params), params.stats, list(searched)))
        (got, stats, once), (want, want_stats, again) = runs
        assert got == want and stats == want_stats
        assert len(once) == len(set(once)) == len(set(again)) < len(again)


class _NoTables(RecursParams):
    """Recursion parameters whose ESC tables keep nothing: each parity guess solves afresh."""

    def __post_init__(self):
        self.tables = _ForgetfulTable()


def test_shared_esc_tables_match_solves_that_keep_none(monkeypatch):
    # both paths, with and without thresholds: sharing one table per flip-map
    # tuple changes no answer, certificate or guess count
    draws = reused = 0
    for seed in range(300):
        rng = random.Random(seed)
        n, m, r = rng.randrange(3, 9), rng.randrange(2, 14), seed % 3
        inst = random_instance("dual", n, m, r, rng.randrange(1, 3), rng.randrange(0, 3), rng)
        want = solve_dual_bruteforce(inst)
        for thresholds in (None, (2, 2 * (inst.k + 1), 4)):
            runs = []
            for cls in (RecursParams, _NoTables):
                monkeypatch.setattr(dual_solver, "RecursParams", cls)
                stats = {}
                params = None if thresholds is None else cls(*thresholds)
                runs.append((dual_solver.solve(inst, params, stats), stats))
            (got, stats), (ref, ref_stats) = runs
            assert got == ref, seed
            assert (got is None) == (want is None), seed
            assert [stats.get(key) for key in ("guesses", "packing")] == \
                [ref_stats.get(key) for key in ("guesses", "packing")]
            assert stats.get("esc_tables", 0) <= stats.get("guesses", 0)
            reused += stats.get("guesses", 0) - stats.get("esc_tables", 0)
            draws += 1
    assert draws >= 600 and reused > 0


def test_one_params_object_serves_several_instances():
    # the tables are keyed by content: instances on one graph that differ only
    # in P, its rows' vertices, k or terminals each get their own answer from
    # a shared store
    differ = 0
    for seed in range(60):
        rng = random.Random(seed)
        base = random_instance("dual", 6, 10, 1, 1, 1, rng)
        g, eids = base.graph, base.graph.edge_ids()
        rows = [rng.getrandbits(g.num_edges) if rng.random() < 0.5 else 0 for _ in range(g.n)]
        moved = rng.sample(base.p.row_bits, g.n)
        variants = [base,
                    DualInstance(g, Gf2Matrix(g.n, g.num_edges, rows), base.terminals, base.k),
                    DualInstance(g, Gf2Matrix(g.n, g.num_edges, moved), base.terminals, base.k),
                    DualInstance(g, base.p, base.terminals, base.k + 1),
                    DualInstance(g, base.p, [rng.choice(eids)], base.k),
                    DualInstance(g, base.p, base.terminals + (rng.choice(eids),), base.k)]
        shared = RecursParams()
        answers = []
        for inst in variants:
            stats, fresh_stats = {}, {}
            got = dual_solver.solve(inst, shared, stats)
            assert got == dual_solver.solve(inst, RecursParams(), fresh_stats), seed
            assert stats.get("guesses") == fresh_stats.get("guesses")
            answers.append(got if got is None else got[0])
        differ += len(set(map(str, answers))) > 1
    assert differ >= 40


def test_breakable_branch_on_doubled_path():
    inst = doubled_path_dual(length=18, dup_at=0, k=1)
    params = RecursParams(q=2, p=2, s=16)
    got = dual_solver.solve(inst, params=params)
    want = solve_dual_bruteforce(inst)
    assert (got is None) == (want is None)
    if got is not None:
        assert len(got[0]) == len(want[0])
    assert params.stats.get("breakable", 0) >= 1


def test_failed_lift_answers_from_the_small_case_table(monkeypatch):
    # every leafy path reaches the lift; when it fails, each key takes the
    # small case's answer for the whole instance
    monkeypatch.setattr(dual_solver, "_lift_breakable", lambda *args: None)
    for trial in range(10):
        esc = leafy_path_esc(trial)
        params = RecursParams(q=2, p=2, s=6)
        table = recurs(esc, params)
        assert params.stats.get("lift_fail", 0) >= 1, trial
        ref = _small_case(esc, RecursParams())
        assert table.keys() == ref.keys()
        for key, ans in ref.items():
            assert (table[key] is None) == (ans is None), (trial, key)
            if ans is not None:
                assert len(table[key][0]) == len(ans[0]), (trial, key)


def _unbreakable_every_coloring(inst, params):
    """The unbreakable branch as the paper states it: one attempt per colouring.

    Each colouring of an (n, nbig, pbig)-universal set gives the small
    components of its zero set as the pocket list.
    """
    params.bump("unbreakable")
    n, k, terms = inst.g.n, inst.k, inst.terminals
    keys = list(all_keys(inst))
    table = {key: None for key in keys}
    prelim = {}
    for term in terms:
        y = preliminary_partition(inst, term)
        if y is None:
            return table
        prelim[term.tid] = y[0]
    k_u = (params.q + 2 * (k + 1)) * len(terms)
    p_u = 2 * (k + 1) * len(terms)
    verts = set(range(n))
    adj = inst.g.adjacency()
    colorings = build_universal_set(n, k_u, p_u).functions
    for align in itertools.product((0, 1), repeat=len(terms)):
        y_side = {term.tid: prelim[term.tid] if flip == 0 else verts - prelim[term.tid]
                  for term, flip in zip(terms, align)}
        for coloring in colorings:
            comps = connected_components(inst.g, verts - {v for v in range(n) if coloring[v]})
            small = [sorted(c) for c in comps if len(c) <= params.q * len(terms)]
            fixed = verts - set().union(*small)
            attempt = dual_solver._assemble_attempt(inst, params, y_side, fixed, small, adj)
            if attempt is None:
                continue
            for key in keys:
                cand = attempt(key)
                if cand is None or not is_key_solution(inst, key, *cand):
                    continue
                if table[key] is None or len(cand[0]) < len(table[key][0]):
                    table[key] = cand
    return table


def _esc_keys_agree(inst, q):
    """Compare _unbreakable_case with the colouring reference on every parity guess.

    Returns the number of keys answered.  Both tables must give every key
    an F of the same size, or both None.
    """
    kept = reduce_terminals_dual(inst).basis
    t, _ = vertex_types(inst.p)
    answered = 0
    for combo in itertools.product(itertools.product((0, 1), repeat=t), repeat=len(kept)):
        esc = build_esc(inst, dict(zip(kept, combo)), active_terminals=kept)
        got, want = (case(esc, RecursParams(q=q, p=2, s=4))
                     for case in (dual_solver._unbreakable_case, _unbreakable_every_coloring))
        assert got.keys() == want.keys()
        for key, ans in got.items():
            assert (ans is None) == (want[key] is None), key
            if ans is not None:
                assert len(ans[0]) == len(want[key][0]), key
                answered += 1
    return answered


def test_unbreakable_case_matches_universal_set_colorings():
    # K_8 plus a doubled edge, perturbed so that {terminal, edge 0} is a cocycle
    g = complete_graph(8)
    term = g.add_edge(0, 1)
    star = sum(1 << j for j, (a, b) in g.edges() if (a == 0) != (b == 0))
    inst = DualInstance(g, Gf2Matrix(8, g.num_edges, [star ^ (1 << term) ^ 1] * 8), [term], 1)
    assert _esc_keys_agree(inst, 2)
    # random connected instances with at least nbig = (q + 2(k+1))|T| vertices
    checked = answered = 0
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randrange(6, 11)
        num_terms, k, q = rng.randrange(1, 3), rng.randrange(0, 3), rng.randrange(1, 3)
        inst = random_instance("dual", n, rng.randrange(n, 3 * n + 1), rng.randrange(0, 2),
                               num_terms, k, rng)
        red = reduce_terminals_dual(inst)
        if (red.no or not red.basis or not is_connected(inst.graph)
                or n < (q + 2 * (k + 1)) * len(red.basis)):
            continue
        answered += _esc_keys_agree(inst, q) > 0
        checked += 1
    assert checked >= 20 and answered >= 5


def test_hosts_past_universal_set_demand_cap_match_oracle():
    # K_n plus a doubled edge whose copy is the terminal, with no perturbation
    # and with a rank-1 one that makes {terminal, partner} a cocycle; an
    # (n, 6, 4)-universal set for these hosts exceeds derand.DEMAND_CAP
    for n in (24, 32, 40):
        rng = random.Random(n)
        g = complete_graph(n)
        u, v = sorted(rng.sample(range(n), 2))
        term = g.add_edge(u, v)
        hub = rng.randrange(n)
        star = sum(1 << j for j, (a, b) in g.edges() if (a == hub) != (b == hub))
        partner = rng.choice([e for e in g.edge_ids() if e != term])
        for rows in ([0] * n, [star ^ (1 << term) ^ (1 << partner)] * n):
            inst = DualInstance(g, Gf2Matrix(n, g.num_edges, rows), [term], 1)
            params = RecursParams(q=2, p=2, s=16)
            got = dual_solver.solve(inst, params=params)
            want = solve_dual_bruteforce(inst)
            assert (got is None) == (want is None), (n, rows[0])
            if got is not None:
                assert len(got[0]) == len(want[0])
                assert all(cc.verify(inst.a_matrix) for cc in got[1].values())
            assert params.stats.get("unbreakable", 0) >= 1
