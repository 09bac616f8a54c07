"""Shared corpus generators and brute-force helpers for the test suite."""

import itertools
import random

from spacecover.dual_solver import build_esc, cont
from spacecover.gf2 import Gf2Matrix
from spacecover.instances import DualInstance, random_instance
from spacecover.multigraph import MultiGraph


def primal_corpus(count, seed, n_max=7, m_max=10, k_max=3, r_max=2, t_max=3):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(random_instance("primal", rng.randrange(2, n_max + 1),
                                   rng.randrange(3, m_max + 1),
                                   rng.randrange(0, r_max + 1),
                                   rng.randrange(1, t_max + 1),
                                   rng.randrange(0, k_max + 1), rng))
    return out


def dual_corpus(count, seed, n_max=6, m_max=9, k_max=2, r_max=1, t_max=2):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(random_instance("dual", rng.randrange(2, n_max + 1),
                                   rng.randrange(3, m_max + 1),
                                   rng.randrange(0, r_max + 1),
                                   rng.randrange(1, t_max + 1),
                                   rng.randrange(0, k_max + 1), rng))
    return out


def complete_graph(n):
    g = MultiGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


def grid_dual(w, k, seed):
    """A w x w grid with P = 0 whose two terminals are boundary edges drawn by ``random.Random(seed)``."""
    g = MultiGraph(w * w)
    boundary = []
    for r in range(w):
        for c in range(w):
            v = r * w + c
            if c + 1 < w:
                e = g.add_edge(v, v + 1)
                if r in (0, w - 1):
                    boundary.append(e)
            if r + 1 < w:
                e = g.add_edge(v, v + w)
                if c in (0, w - 1):
                    boundary.append(e)
    terms = random.Random(seed).sample(boundary, 2)
    return DualInstance(g, Gf2Matrix(g.n, g.num_edges), terms, k)


def relabelled(inst, rng):
    """inst with vertex ids and edge ids permuted, terminals and P columns carried along."""
    g = inst.graph
    vperm = list(range(g.n))
    rng.shuffle(vperm)
    order = g.edge_ids()
    rng.shuffle(order)   # new edge j is old edge order[j]
    new_g = MultiGraph(g.n, [tuple(vperm[x] for x in g.endpoints(e)) for e in order])
    row_bits = [0] * g.n
    for i in range(g.n):
        for j, e in enumerate(order):
            row_bits[vperm[i]] |= ((inst.p.row_bits[i] >> e) & 1) << j
    terminals = [j for j, e in enumerate(order) if e in inst.terminals]
    return type(inst)(new_g, Gf2Matrix(g.n, len(order), row_bits), terminals, inst.k)


def answer_size(result):
    """|F| of a solver's answer, None for "no"."""
    return None if result is None else len(result[0])


def path_graph(n):
    g = MultiGraph(n)
    for v in range(n - 1):
        g.add_edge(v, v + 1)
    return g


def random_forest(n, rng):
    """Random forest on n vertices via union-find edge insertion."""
    g = MultiGraph(n)
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(candidates)
    for u, v in candidates:
        if rng.random() < 0.6:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                g.add_edge(u, v)
    return g


def is_preliminary(inst, term, x):
    """Brute-force e-preliminary test: almost fits with <= k free contributing edges."""
    c = cont(term, x, inst)
    want = set() if term.edge is None else {term.edge}
    if (c & set(inst.blocked)) != want:
        return False
    return len(c - want) <= inst.k


def all_preliminary(inst, term):
    """Every e-preliminary partition (as a frozenset X), by full enumeration."""
    n = inst.g.n
    out = []
    for mask in range(1 << n):
        x = frozenset(v for v in range(n) if (mask >> v) & 1)
        if is_preliminary(inst, term, x):
            out.append(x)
    return out


def e_close(z, z_prime, vertices, g, q, k):
    """The bounded-difference closeness relation between two partitions."""

    def aligned(a, b):
        disagree = (a - b) | ((vertices - a) - (vertices - b))
        if len(disagree) > q:
            return False
        agree = vertices - disagree
        crossing = sum(1 for _, (u, v) in g.edges()
                       if (u in disagree) != (v in disagree)
                       and (u in agree or v in agree))
        return crossing <= 2 * (k + 1)

    return aligned(z, z_prime) or aligned(vertices - z, z_prime)


def esc_from_random_dual(rng, n_max=10, m_max=12, k_max=2, r_max=1):
    """A random Edge-Set Cover instance with a concrete parity guess."""
    inst = random_instance("dual", rng.randrange(3, n_max + 1),
                           rng.randrange(4, m_max + 1),
                           rng.randrange(0, r_max + 1),
                           rng.randrange(1, 3),
                           rng.randrange(0, k_max + 1), rng)
    from spacecover.dual_solver import vertex_types

    t, _ = vertex_types(inst.p)
    guess = {e: tuple(rng.getrandbits(1) for _ in range(t))
             for e in inst.terminals}
    return build_esc(inst, guess)


def all_embeddings(inst):
    """Every valid embedding of a Pattern Cover instance, by full enumeration."""
    kh = inst.h.n
    if kh > inst.g.n:
        return []
    free = [v for v in range(kh) if v not in inst.u]
    pinned_targets = set(inst.f.values())
    pool = [x for x in range(inst.g.n) if x not in pinned_targets]
    hedges = inst.h.edge_ids()
    out = []
    from spacecover.pattern_cover import Embedding

    for perm in itertools.permutations(pool, len(free)):
        vmap = dict(inst.f)
        vmap.update(zip(free, perm))
        options = []
        ok = True
        for he in hedges:
            a, b = inst.h.endpoints(he)
            want = {vmap[a], vmap[b]}
            lab = inst.ell_h[he]
            cands = [ge for ge, (x, y) in inst.g.edges()
                     if {x, y} == want and inst.ell_g[ge] == lab]
            if not cands:
                ok = False
                break
            options.append(cands)
        if not ok:
            continue
        for combo in itertools.product(*options):
            if len(set(combo)) != len(combo):
                continue
            emb = Embedding(dict(vmap), dict(zip(hedges, combo)))
            if emb.verify(inst):
                out.append(emb)
    return out


def doubled_path_dual(length, dup_at, k, terminals_on_dup=True):
    """Path with one doubled edge; the duplicate pair hosts the terminal."""
    from spacecover.gf2 import Gf2Matrix

    g = path_graph(length + 1)
    dup = g.add_edge(dup_at, dup_at + 1)
    eids = g.edge_ids()
    p = Gf2Matrix(g.n, len(eids), None)
    term = dup if terminals_on_dup else eids[0]
    return DualInstance(g, p, [term], k)


def leafy_path_esc(trial):
    """A small ESC instance with leaf clusters so the collapse can shrink."""
    n_leaves_a = 3 + trial % 2
    g = MultiGraph(9 + n_leaves_a + 3)
    for v in range(8):
        g.add_edge(v, v + 1)
    dup_at = trial % 7
    dup = g.add_edge(dup_at, dup_at + 1)
    for leaf in range(9, 9 + n_leaves_a):
        g.add_edge(1, leaf)
    for leaf in range(9 + n_leaves_a, 9 + n_leaves_a + 3):
        g.add_edge(7, leaf)
    p = Gf2Matrix(g.n, g.num_edges)
    inst = DualInstance(g, p, [dup], 1 + trial % 2)
    return build_esc(inst, {dup: (trial % 2,)})
