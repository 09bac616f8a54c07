"""Acceptance gate: the ten top-level criteria, one test (and report line) each."""

import itertools
import random
from functools import lru_cache

from helpers import (all_embeddings, all_preliminary, complete_graph,
                     doubled_path_dual, dual_corpus, e_close,
                     esc_from_random_dual, leafy_path_esc, path_graph,
                     primal_corpus, random_forest)
from spacecover import dual_solver, eoct, pgm_solver
from spacecover.cli import EXIT_YES, main as cli_main
from spacecover.derand import (build_hash_family, build_universal_set,
                               verify_family, verify_universal)
from spacecover.dual_solver import (RecursParams, _small_case, build_esc,
                                    is_key_solution, preliminary_partition, recurs,
                                    vertex_types)
from spacecover.fileio import report_from_solution, serialize_instance
from spacecover.gf2 import Gf2Matrix, rank
from spacecover.hardness import (McInstance, TdmInstance, from_3dm,
                                 from_multicolored_clique, mc_has_clique,
                                 tdm_has_matching)
from spacecover.instances import DualInstance
from spacecover.multigraph import (UNBREAKABLE, MultiGraph, count_simple_cycles,
                                   good_edge_separation)
from spacecover.oracle import (eoct_bruteforce, minimal_primal_solutions,
                               pattern_cover_bruteforce, solve_dual_bruteforce,
                               solve_primal_bruteforce)
from spacecover.pattern_cover import PatternCoverInstance, colorful_solve, solve
from spacecover.pgm_solver import edge_types


@lru_cache(maxsize=None)
def _corpus_primal_500():
    return tuple(primal_corpus(500, seed=2024))


def test_criterion_01_primal_oracle_equivalence(tmp_path):
    agree = yes = 0
    for i, inst in enumerate(_corpus_primal_500()):
        got = pgm_solver.solve(inst)
        want = solve_primal_bruteforce(inst)
        assert (got is None) == (want is None), i
        agree += 1
        if got is None:
            continue
        yes += 1
        inst_path = tmp_path / ("c1_%d.scpm" % i)
        inst_path.write_text(serialize_instance(inst), encoding="utf-8")
        report_path = tmp_path / ("c1_%d.json" % i)
        report_path.write_text(report_from_solution(inst, got).to_json(),
                               encoding="utf-8")
        assert cli_main(["check", str(inst_path), str(report_path)]) == EXIT_YES
    assert agree == 500
    assert 0 < yes < 500  # the corpus mixes yes and no instances
    print("criterion 1: PASS (500/500 agree, %d yes witnesses checked)" % yes)


def test_criterion_02_dual_oracle_equivalence():
    agree = yes = 0
    for i, inst in enumerate(dual_corpus(300, seed=2025)):
        got = dual_solver.solve(inst)
        want = solve_dual_bruteforce(inst)
        assert (got is None) == (want is None), i
        agree += 1
        if got is None:
            continue
        yes += 1
        f, certs = got
        assert len(f) <= inst.k and not set(f) & set(inst.terminals)
        m = inst.a_matrix
        assert set(certs) == set(inst.terminals)
        for cc in certs.values():
            assert cc.verify(m)
    assert agree == 300
    assert 0 < yes < 300
    print("criterion 2: PASS (300/300 agree, %d certificates re-verified)" % yes)


def _k17_instances():
    g = complete_graph(17)
    dup = g.add_edge(0, 1)
    eids = g.edge_ids()
    rng = random.Random(88)
    terminals = [dup, eids[0]] + rng.sample(eids[1:-1], 18)
    star0 = 0
    for j, (u, v) in g.edges():
        if u == 0 or v == 0:
            star0 |= 1 << j
    out = []
    for i, term in enumerate(terminals):
        if i % 3 == 0:
            p = Gf2Matrix(17, len(eids))
        elif i % 3 == 1:
            row = rng.getrandbits(len(eids))
            p = Gf2Matrix(17, len(eids), [row] * 17)
        else:
            # rank-1 tweak making {term, partner} a cocycle: a yes at k = 1
            partner = rng.choice([e for e in eids if e != term])
            row = star0 ^ (1 << term) ^ (1 << partner)
            p = Gf2Matrix(17, len(eids), [row] * 17)
        out.append(DualInstance(g.copy(), p, [term], 1))
    return out


def test_criterion_03_unbreakable_branch():
    params = RecursParams(q=2, p=2, s=16)
    agree = yes = 0
    instances = _k17_instances()
    assert len(instances) >= 20
    for inst in instances:
        t, _ = vertex_types(inst.p)
        assert t == 1
        got = dual_solver.solve(inst, params=params)
        want = solve_dual_bruteforce(inst)
        assert (got is None) == (want is None)
        if got is not None:
            yes += 1
            assert len(got[0]) == len(want[0])
        agree += 1
    assert agree == 20
    assert 0 < yes < agree
    assert params.stats.get("unbreakable", 0) >= 1
    print("criterion 3: PASS (20/20 agree, %d yes; stats=%s)"
          % (yes, params.stats))


def _barbell_dual(k):
    g = MultiGraph(19)
    for u in range(4):
        for v in range(u + 1, 4):
            g.add_edge(u, v)
    for u in range(15, 19):
        for v in range(u + 1, 19):
            g.add_edge(u, v)
    for v in range(3, 15):
        g.add_edge(v, v + 1)
    dup = g.add_edge(0, 1)
    p = Gf2Matrix(19, g.num_edges)
    return DualInstance(g, p, [dup], k)


def _tripled_path_dual(length, k):
    g = path_graph(length + 1)
    a = g.add_edge(0, 1)
    g.add_edge(0, 1)
    p = Gf2Matrix(g.n, g.num_edges)
    return DualInstance(g, p, [a], k)


def test_criterion_04_breakable_branch():
    params = RecursParams(q=2, p=2, s=16)
    instances = []
    for dup_at in range(6):
        instances.append(doubled_path_dual(17 + dup_at % 3, dup_at, k=1))
    for length in (17, 18, 19):
        instances.append(_tripled_path_dual(length, k=1))   # no-instances
        instances.append(_tripled_path_dual(length, k=2))   # yes-instances
    instances.append(_barbell_dual(3))                      # yes
    instances.append(_barbell_dual(2))                      # no
    for dup_at in range(6, 12):
        instances.append(doubled_path_dual(18, dup_at, k=1))
    assert len(instances) >= 20
    agree = yes = 0
    for inst in instances:
        got = dual_solver.solve(inst, params=params)
        want = solve_dual_bruteforce(inst)
        assert (got is None) == (want is None)
        if got is not None:
            yes += 1
            assert len(got[0]) == len(want[0])
        agree += 1
    assert agree >= 20
    assert params.stats.get("breakable", 0) >= 1
    assert 0 < yes < agree

    # replacement-graph table preservation on tiny instances, both routes
    shrunk = 0
    for trial in range(10):
        ainst = leafy_path_esc(trial)
        rec_params = RecursParams(q=2, p=2, s=6)
        rec_table = recurs(ainst, rec_params)
        ref_table = _small_case(ainst, RecursParams(q=2, p=2, s=10 ** 6))
        assert set(rec_table) == set(ref_table), trial
        for key in ref_table:
            a, b = rec_table[key], ref_table[key]
            assert (a is None) == (b is None), (trial, key)
            if a is not None:
                assert len(a[0]) == len(b[0]), (trial, key)
                assert is_key_solution(ainst, key, a[0], a[1])
        assert rec_params.stats.get("breakable", 0) >= 1, trial
        if rec_params.stats.get("breakable", 0) > rec_params.stats.get("no_shrink", 0):
            shrunk += 1
    assert shrunk >= 1  # the collapse genuinely removed vertices somewhere
    print("criterion 4: PASS (%d/%d agree, %d yes; tables match on 10 tiny "
          "instances, %d with real shrinkage)" % (agree, agree, yes, shrunk))


def test_criterion_05_minimal_solutions_have_few_cycles():
    checked = 0
    for inst in _corpus_primal_500():
        t, _ = edge_types(inst.p)
        cap = 1 << t
        for f in minimal_primal_solutions(inst):
            sub = inst.graph.without_edges(set(inst.graph.edge_ids()) - f)
            assert count_simple_cycles(sub) <= cap, (inst, f)
            checked += 1
    assert checked > 0
    print("criterion 5: PASS (%d minimal solutions, zero cycle-cap violations)"
          % checked)


def _random_pattern_instance(rng, gn_max, hn_max, t_max=3):
    gn = rng.randrange(2, gn_max + 1)
    g = MultiGraph(gn)
    t = rng.randrange(1, t_max + 1)
    for _ in range(rng.randrange(2, 2 * gn + 2)):
        g.add_edge(rng.randrange(gn), rng.randrange(gn))
    ell_g = {e: rng.randrange(1, t + 1) for e in g.edge_ids()}
    h = random_forest(rng.randrange(1, hn_max + 1), rng)
    ell_h = {e: rng.randrange(1, t + 1) for e in h.edge_ids()}
    pins = rng.sample(range(h.n), min(rng.randrange(0, 3), h.n, g.n))
    targets = rng.sample(range(g.n), len(pins))
    return PatternCoverInstance(g, ell_g, h, ell_h,
                                frozenset(pins), dict(zip(pins, targets)))


def test_criterion_06_pattern_cover():
    rng = random.Random(606)
    agree = yes = 0
    for _ in range(300):
        inst = _random_pattern_instance(rng, gn_max=10, hn_max=6)
        got = solve(inst)
        want = pattern_cover_bruteforce(inst)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.verify(inst)
            yes += 1
        agree += 1
    assert agree == 300

    colorful_agree = 0
    rng = random.Random(607)
    for _ in range(100):
        inst = _random_pattern_instance(rng, gn_max=7, hn_max=4)
        k = inst.h.n
        coloring = [rng.randrange(max(k, 1)) for _ in range(inst.g.n)]
        got = colorful_solve(inst, coloring)
        rainbow = [emb for emb in all_embeddings(inst)
                   if len({coloring[x] for x in emb.vertex_map.values()}) == k]
        assert (got is None) == (not rainbow)
        if got is not None:
            assert got.verify(inst)
            assert len({coloring[x] for x in got.vertex_map.values()}) == k
        colorful_agree += 1
    assert colorful_agree == 100
    print("criterion 6: PASS (300/300 deterministic, %d yes; 100/100 colorful)"
          % yes)


def test_criterion_07_eoct():
    rng = random.Random(707)
    agree = 0
    for i in range(200):
        n = rng.randrange(2, 8)
        g = MultiGraph(n)
        m = rng.randrange(0, 13)
        for _ in range(m):
            if rng.random() < 0.15:
                v = rng.randrange(n)
                g.add_edge(v, v)
            else:
                g.add_edge(rng.randrange(n), rng.randrange(n))
        best = eoct_bruteforce(g, g.num_edges)
        k = len(best)
        assert eoct.minimize(g) == k, i
        res = eoct.solve(g, k)
        assert res is not None
        assert len(res[0]) <= k
        if k > 0:
            assert eoct.solve(g, k - 1) is None, i
        agree += 1
    assert agree == 200
    print("criterion 7: PASS (200/200 graphs agree with brute force)")


def test_criterion_08_derandomization():
    families = 0
    for n in range(2, 13):
        for k in range(2, n + 1):
            assert verify_family(build_hash_family(n, k)), (n, k)
            families += 1
    universal = 0
    for k in range(1, 5):
        for n in range(k, 13):
            for p in range(0, k + 1):
                assert verify_universal(build_universal_set(n, k, p)), (n, k, p)
                universal += 1
    print("criterion 8: PASS (%d hash families, %d universal sets verified "
          "exhaustively)" % (families, universal))


def _primal_yes_fast(inst):
    """Exact yes/no by scanning exact-size column subsets (span is monotone)."""
    term_cols = [inst.a_column(e) for e in inst.terminals]
    free = [inst.a_column(e) for e in inst.nonterminal_edges()]

    def spans(vectors):
        pivots = []
        for w in vectors:
            for piv in pivots:
                if w & (piv & -piv):
                    w ^= piv
            if w:
                pivots.append(w)
        for t in term_cols:
            for piv in pivots:
                if t & (piv & -piv):
                    t ^= piv
            if t:
                return False
        return True

    if not spans(free):
        return False
    size = min(inst.k, len(free))
    return any(spans(sub) for sub in itertools.combinations(free, size))


def _tdm_canonical(triples):
    """Orbit representative under independent 0/1 relabeling of each universe."""
    best = None
    for fx, fy, fz in itertools.product((0, 1), repeat=3):
        img = tuple(sorted((x ^ fx, y ^ fy, z ^ fz) for x, y, z in triples))
        if best is None or img < best:
            best = img
    return best


def test_criterion_09_hardness():
    # multicolored clique, k=2: exhaustive on 4 vertices
    parts4 = [[0, 1], [2, 3]]
    cross4 = [(u, v) for u in parts4[0] for v in parts4[1]]
    for mask in range(1 << len(cross4)):
        edges = [cross4[i] for i in range(len(cross4)) if (mask >> i) & 1]
        mc = McInstance(4, edges, parts4)
        inst = from_multicolored_clique(mc)
        assert inst.k == 3  # k(k+1)/2
        got = solve_primal_bruteforce(inst) is not None
        assert got == mc_has_clique(mc), edges
    # sampled on 6 vertices
    parts6 = [[0, 1, 2], [3, 4, 5]]
    cross6 = [(u, v) for u in parts6[0] for v in parts6[1]]
    rng = random.Random(909)
    for _ in range(40):
        mask = rng.randrange(1 << len(cross6))
        edges = [cross6[i] for i in range(len(cross6)) if (mask >> i) & 1]
        mc = McInstance(6, edges, parts6)
        got = solve_primal_bruteforce(from_multicolored_clique(mc)) is not None
        assert got == mc_has_clique(mc), edges

    # 3-dimensional matching, q = 1 exhaustively against the full oracle
    for triples in ([], [(0, 0, 0)]):
        tdm = TdmInstance(1, list(triples))
        inst = from_3dm(tdm)
        assert inst.k == 3 and rank(inst.p) <= 2
        assert (solve_primal_bruteforce(inst) is not None) == tdm_has_matching(tdm)

    # q = 2: every subset of the 8 possible triples, one scan per symmetry orbit
    universe = list(itertools.product((0, 1), repeat=3))
    cache = {}
    scans = 0
    for mask in range(1 << 8):
        triples = [universe[i] for i in range(8) if (mask >> i) & 1]
        key = _tdm_canonical(triples)
        if key not in cache:
            tdm = TdmInstance(2, list(key))
            inst = from_3dm(tdm)
            assert inst.k == 6 and rank(inst.p) <= 2
            cache[key] = (_primal_yes_fast(inst), tdm_has_matching(tdm))
            scans += 1
        got, want = cache[key]
        assert got == want, triples
        assert want == tdm_has_matching(TdmInstance(2, triples))

    # cross-validate the fast scanner against the reference oracle
    for r in range(3):
        for combo in itertools.combinations(universe, r):
            inst = from_3dm(TdmInstance(2, list(combo)))
            assert _primal_yes_fast(inst) == \
                (solve_primal_bruteforce(inst) is not None)
    print("criterion 9: PASS (16 + 40 clique instances, 256 matching instances "
          "via %d orbit scans)" % scans)


def _pendant_unbreakable(core_n, k):
    """Clique core with a doubled pendant edge: unbreakable, yet near-cuts exist."""
    g = MultiGraph(core_n + 2)
    for u in range(core_n):
        for v in range(u + 1, core_n):
            g.add_edge(u, v)
    w1, w2 = core_n, core_n + 1
    dup = g.add_edge(w1, 0)
    g.add_edge(w1, 0)
    g.add_edge(w1, w2)
    if k >= 2:
        g.add_edge(w2, 0)
    return g, dup


def test_criterion_10_preliminary_partitions():
    rng = random.Random(1010)
    checked = 0
    instances = 0
    while instances < 100:
        inst = esc_from_random_dual(rng, n_max=10, m_max=12)
        instances += 1
        for term in inst.terminals:
            got = preliminary_partition(inst, term)
            want = all_preliminary(inst, term)
            assert (got is None) == (not want)
            if got is not None:
                assert got[0] in want or got[1] in want
            checked += 1
    assert instances == 100 and checked > 0

    # closeness of all preliminary-partition pairs on unbreakable graphs
    pairs = 0
    rng = random.Random(1011)
    for core_n, k in ((6, 1), (7, 1), (8, 2)):
        g, dup = _pendant_unbreakable(core_n, k)
        q = 2
        assert good_edge_separation(g, q, 2 * (k + 1)) == UNBREAKABLE
        for r in (0, 1):
            row = rng.getrandbits(g.num_edges) if r else 0
            p = Gf2Matrix(g.n, g.num_edges, [row] * g.n)
            dinst = DualInstance(g.copy(), p, [dup], k)
            t, _ = vertex_types(dinst.p)
            guess = {dup: tuple(rng.getrandbits(1) for _ in range(t))}
            esc = build_esc(dinst, guess)
            term = esc.terminals[0]
            prelim = all_preliminary(esc, term)
            verts = frozenset(range(g.n))
            for z in prelim:
                for z_prime in prelim:
                    assert e_close(z, z_prime, verts, g, q, k), (z, z_prime)
                    pairs += 1
    assert pairs > 0
    print("criterion 10: PASS (100 instances vs 2^n brute force, %d partition "
          "checks; %d close pairs verified)" % (checked, pairs))
