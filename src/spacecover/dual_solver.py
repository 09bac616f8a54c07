"""Dual pipeline: reduce to Edge-Set Cover and solve by the three-branch recursion."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from . import eoct
from .binmatroid import (CocycleCertificate, Reduction, default_solve, dual_span_contains,
                         terminal_reduction)
from .gf2 import Gf2Matrix, distinct_rows, nullspace, spans_all
from .instances import DualInstance
from .multigraph import (MultiGraph, UNBREAKABLE, connected_components,
                         good_edge_separation, incidence_matrix, is_connected,
                         signed_components)

__all__ = [
    "EscTerminal",
    "EdgeSetCoverInstance",
    "RecursParams",
    "vertex_types",
    "contributes",
    "build_esc",
    "solve_esc",
    "recurs",
    "solve",
    "is_key_solution",
    "all_keys",
    "preliminary_partition",
]


@dataclass
class EscTerminal:
    """A terminal of Edge-Set Cover: an edge (or a dummy) with parity target and flip map."""

    tid: int
    edge: Optional[int]          # edge id in the instance graph; None = dummy
    b: Tuple[int, ...]           # target class parities (used at the root)
    f: int                       # bit e: the flip of edge e


@dataclass
class EdgeSetCoverInstance:
    """Graph, budget, vertex classes, terminals, and the edges excluded from F.

    The recursion's sub-instances also carry a boundary set W and per-terminal
    pinned sets; both are empty at the root.
    """

    g: MultiGraph
    k: int
    t: int
    classes: Dict[int, int]      # vertex -> class index in [0, t)
    terminals: List[EscTerminal]
    blocked: FrozenSet[int]      # superset of real terminal edges; disjoint from F
    w: FrozenSet[int] = frozenset()
    pins: Dict[int, Tuple[FrozenSet[int], FrozenSet[int]]] = field(default_factory=dict)

    def class_parities(self, x: FrozenSet[int]) -> Tuple[int, ...]:
        par = [0] * self.t
        for v in x:
            par[self.classes[v]] ^= 1
        return tuple(par)

    def pin(self, tid: int) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        return self.pins.get(tid, (frozenset(), frozenset()))


@dataclass
class RecursParams:
    """Recursion thresholds, the branch counters, separations and ESC tables of one solve.

    Without thresholds every instance takes the small case.  The recursion
    (good separations, EOCT, the unbreakable branch's pockets, the lift)
    runs only when q, p and s are given explicitly.  It is a theory-only
    path: the paper's thresholds give s >= 2^16 vertices whenever k >= 1,
    which leaves every solvable instance in the small case.

    ``tables`` keeps one root-independent ESC result per distinct instance
    content (``_esc_key``): parity guesses whose class rows sum to the same
    perturbation rows give every terminal the same flip map, and so share
    one table.  Both stores are keyed by content, so one object may serve
    several solves.
    """

    q: Optional[int] = None
    p: Optional[int] = None
    s: Optional[int] = None
    stats: Dict[str, int] = field(default_factory=dict)
    # (n, edges) -> good_edge_separation of that graph under q and p; every
    # parity guess of a solve meets the same graphs again
    separations: Dict[Tuple, object] = field(default_factory=dict, init=False)
    # _esc_key(inst) -> root answers, per-terminal class parities -> (F, {tid: X})
    tables: Dict[Tuple, object] = field(default_factory=dict, init=False)

    def bump(self, name: str) -> None:
        self.stats[name] = self.stats.get(name, 0) + 1


def vertex_types(p: Gf2Matrix) -> Tuple[int, List[FrozenSet[int]]]:
    """Number of distinct P-rows and the vertex classes V_1..V_t (first occurrence order)."""
    _, cls_of = distinct_rows(p)
    if not cls_of:
        return 1, [frozenset()]
    t = max(cls_of.values()) + 1
    classes = [frozenset(v for v, c in cls_of.items() if c == i) for i in range(t)]
    return t, classes


def contributes(e_prime: int, e: EscTerminal, x, inst: EdgeSetCoverInstance) -> bool:
    """Whether edge e_prime contributes to (e, (X, complement))."""
    u, v = inst.g.endpoints(e_prime)
    fe = (e.f >> e_prime) & 1
    same_side = (u in x) == (v in x)
    return fe == 1 if same_side else fe == 0


def _required_parity(e_prime: int, e: EscTerminal) -> int:
    """Side difference of e_prime's endpoints that the terminal e asks for.

    It is f(e_prime), flipped on e's own edge: every other edge stays out of
    cont(e, X) exactly at this parity, and e's own edge contributes exactly there.
    """
    return ((e.f >> e_prime) & 1) ^ (e_prime == e.edge)


def cont(e: EscTerminal, x, inst: EdgeSetCoverInstance) -> Set[int]:
    return {e2 for e2 in inst.g.edge_ids() if contributes(e2, e, x, inst)}


def all_keys(inst: EdgeSetCoverInstance):
    """Every (parity restriction, per-terminal W-partition) key, in sorted order.

    Every answer table is built in this order, and its readers rely on it.
    """
    terms = inst.terminals
    h_options = list(itertools.product(*(itertools.product((0, 1), repeat=inst.t)
                                         for _ in terms)))
    w_sorted = sorted(inst.w)
    subsets = []
    for mask in range(1 << len(w_sorted)):
        subsets.append(frozenset(w_sorted[i] for i in range(len(w_sorted)) if (mask >> i) & 1))
    subsets.sort(key=sorted)
    lr_options = list(itertools.product(subsets, repeat=len(terms)))
    for h in h_options:
        for lr in lr_options:
            yield (h, lr)


def is_key_solution(inst: EdgeSetCoverInstance, key, f_set, x_map) -> bool:
    """Full definition-level check that (F, {X_e}) solves the given key."""
    h, lr = key
    if len(f_set) > inst.k or set(f_set) & set(inst.blocked):
        return False
    if not set(f_set) <= set(inst.g.edge_ids()):
        return False
    for i, term in enumerate(inst.terminals):
        x = x_map.get(term.tid)
        if x is None:
            return False
        c = cont(term, x, inst)
        want = set() if term.edge is None else {term.edge}
        if (c & set(inst.blocked)) != want:
            return False
        if not (c - want) <= set(f_set):
            return False
        if inst.class_parities(frozenset(x)) != tuple(h[i]):
            return False
        l_set, r_set = lr[i], inst.w - lr[i]
        w1, w2 = inst.pin(term.tid)
        if not (l_set <= x and w1 <= x):
            return False
        if (r_set & x) or (w2 & x):
            return False
    return True


# ---------------------------------------------------------------------------
# small case


def _multiplicity_reduce(inst: EdgeSetCoverInstance) -> EdgeSetCoverInstance:
    """Drop parallel same-flip-signature non-blocked edges beyond k+1 copies.

    Keeping k+1 copies (not k) preserves every answer: a contributing bundle of
    k+1 edges can never fit inside F, exactly as in the unreduced graph.  The
    terminals stay as they are: a dropped edge's flip bit is never read.
    """
    groups: Dict[Tuple, List[int]] = {}
    for eid in inst.g.edge_ids():
        if eid in inst.blocked:
            continue
        u, v = inst.g.endpoints(eid)
        sig = (min(u, v), max(u, v), tuple((term.f >> eid) & 1 for term in inst.terminals))
        groups.setdefault(sig, []).append(eid)
    drop: Set[int] = set()
    for sig, eids in groups.items():
        eids.sort()
        if len(eids) > inst.k + 1:
            drop.update(eids[inst.k + 1:])
    return replace(inst, g=inst.g.without_edges(drop)) if drop else inst


def _balance_words(g: MultiGraph, parities: List[Dict[int, int]]
                   ) -> Tuple[Dict[int, int], List[int]]:
    """Each edge's row and each signing's odd word over a cycle basis of g.

    The basis is the kernel of the incidence matrix, so a loop (a one-edge
    cycle) and a parallel pair (a two-edge cycle) need no special case.
    Bit i of an edge's row says that basis cycle i passes through the edge;
    bit i of an odd word says that basis cycle i has odd total parity under
    that signing (edge id -> parity).  The signed graph g - F is balanced
    iff the odd word lies in the span of F's rows.
    """
    eids = g.edge_ids()
    cycles = nullspace(incidence_matrix(g))
    row = dict(zip(eids, Gf2Matrix(len(cycles), len(eids), cycles).columns()))
    odd = []
    for parity in parities:
        odd_edges = sum(1 << j for j, eid in enumerate(eids) if parity[eid])
        odd.append(sum(1 << i for i, c in enumerate(cycles) if (c & odd_edges).bit_count() & 1))
    return row, odd


def _small_case(inst: EdgeSetCoverInstance, params: RecursParams):
    """Branch (a): enumerate F and propagate per-component side assignments.

    A terminal has a side assignment in G - F, every edge at its required
    parity, iff every cycle that avoids F has even parity (Harary's balance
    theorem).  Over a cycle basis of G, blocked edges included, a sum of
    basis cycles avoids F iff it is orthogonal to the rows of F's edges, so
    all such cycles are even iff the terminal's odd word lies in the span of
    those rows (``_balance_words``).  An F that fails this test for some
    terminal is skipped untraversed.  It is exactly an F whose traversal
    would meet an odd cycle and solve no key, so the table is unchanged.
    The test reads only F's nonzero rows (an edge on no cycle has row 0),
    so it runs once per tuple of them: on a graph with many bridges most F
    repeat an earlier result.

    For each F that passes, every terminal gets a reach table from its side
    assignments: (class parities of X, W & X) -> the first X that meets the
    terminal's pins.  A key is solved by F exactly when each of its
    per-terminal parts is reached, so F fills the still unsolved keys in the
    product of the reach tables.  The table is built and filled in
    ``all_keys`` order.
    """
    params.bump("small")
    inst = _multiplicity_reduce(inst)
    table = {key: None for key in all_keys(inst)}
    unsolved = len(table)
    eids = inst.g.edge_ids()
    row, odd = _balance_words(inst.g, [{eid: _required_parity(eid, term) for eid in eids}
                                       for term in inst.terminals])
    nonblocked = [eid for eid in eids if eid not in inst.blocked]
    balanced: Dict[Tuple[int, ...], bool] = {}  # nonzero rows of an F -> the test's result
    for size in range(min(inst.k, len(nonblocked)) + 1):
        if not unsolved:
            break
        for f_sub in itertools.combinations(nonblocked, size):
            if not unsolved:
                break
            rows = tuple(row[eid] for eid in f_sub if row[eid])
            ok = balanced.get(rows)
            if ok is None:
                ok = balanced[rows] = spans_all(rows, odd)
            if not ok:
                continue  # some terminal keeps an odd cycle: F solves no key
            f_set = frozenset(f_sub)
            alive = [(eid, inst.g.endpoints(eid)) for eid in eids if eid not in f_set]
            # every edge outside F, blocked ones included, at its required
            # parity: each component's side assignment is then unique up to
            # a flip, and every flip is valid
            reach = []
            for term in inst.terminals:
                sides = signed_components(range(inst.g.n),
                                          [(u, v, _required_parity(eid, term))
                                           for eid, (u, v) in alive])
                w1, w2 = inst.pin(term.tid)
                by_part: Dict[Tuple, FrozenSet[int]] = {}
                for flips in itertools.product((0, 1), repeat=len(sides)):
                    fx = frozenset(v for side, flip in zip(sides, flips)
                                   for v, c in side.items() if c ^ flip)
                    if w1 <= fx and not w2 & fx:
                        by_part.setdefault((inst.class_parities(fx), inst.w & fx), fx)
                reach.append(by_part)
            for parts in itertools.product(*(by_part.items() for by_part in reach)):
                key = (tuple(h for (h, _), _ in parts), tuple(lr for (_, lr), _ in parts))
                if table[key] is None:
                    table[key] = (f_set, {term.tid: fx for term, (_, fx)
                                          in zip(inst.terminals, parts)})
                    unsolved -= 1
    return table


# ---------------------------------------------------------------------------
# preliminary partitions via edge bipartization


def preliminary_partition(inst: EdgeSetCoverInstance, term: EscTerminal
                          ) -> Optional[Tuple[FrozenSet[int], FrozenSet[int]]]:
    """An e-preliminary partition: of the blocked edges only the terminal's
    own contributes, and at most k others do.

    EOCT runs on signed edges over the instance's own vertices, with no
    gadget graph: each edge asks for its required parity, and a blocked edge
    comes in k + 1 copies so that no solution within budget breaks it.
    """
    k = inst.k
    g2 = MultiGraph(inst.g.n)
    parity: Dict[int, int] = {}
    for eid in inst.g.edge_ids():
        u, v = inst.g.endpoints(eid)
        for _ in range(k + 1 if eid in inst.blocked else 1):
            parity[g2.add_edge(u, v)] = _required_parity(eid, term)
    res = eoct.solve(g2, k, parity)
    return None if res is None else res[1]


# ---------------------------------------------------------------------------
# recursion


def recurs(inst: EdgeSetCoverInstance, params: RecursParams):
    """Complete answer table over all (h, W-partition) keys for a connected instance."""
    if not inst.terminals:
        return {((), ()): (frozenset(), {})}
    n = inst.g.n
    if params.s is None or n <= params.s or not is_connected(inst.g):
        return _small_case(inst, params)
    key = (n, tuple(inst.g.edges()))
    sep = params.separations.get(key)
    if sep is None:
        sep = params.separations[key] = good_edge_separation(inst.g, params.q, params.p)
    if sep == UNBREAKABLE:
        return _unbreakable_case(inst, params)
    return _breakable_case(inst, params, sep)


def _restricted_instance(inst: EdgeSetCoverInstance, vmap: Dict[int, int],
                         copies: Optional[Dict[int, int]] = None
                         ) -> Tuple[EdgeSetCoverInstance, Dict[int, int]]:
    """The sub-instance on the vertices that vmap renames; several may share a name.

    An edge with both ends in vmap comes in copies[eid] copies (default 1),
    added in edge-id order.  Terminal edges, flip maps, blocked edges and
    classes follow the edges and vertices; W and the pins are renamed
    through vmap, losing the vertices it leaves out.  Returns the
    sub-instance and its edge map new -> old.
    """
    sub = MultiGraph(len(set(vmap.values())))
    emap: Dict[int, int] = {}
    for eid, (u, v) in inst.g.edges():
        if u in vmap and v in vmap:
            for _ in range(1 if copies is None else copies.get(eid, 1)):
                emap[sub.add_edge(vmap[u], vmap[v])] = eid
    old_to_new = {old: new for new, old in emap.items()}
    terms = [EscTerminal(term.tid, old_to_new.get(term.edge), term.b,
                         sum(((term.f >> old) & 1) << new for new, old in emap.items()))
             for term in inst.terminals]
    blocked = frozenset(new for new, old in emap.items() if old in inst.blocked)
    classes = {new: inst.classes[old] for old, new in vmap.items()}

    def rename(vertices):
        return frozenset(vmap[v] for v in vertices if v in vmap)

    pins = {term.tid: tuple(map(rename, inst.pin(term.tid))) for term in inst.terminals}
    return EdgeSetCoverInstance(sub, inst.k, inst.t, classes, terms, blocked,
                                rename(inst.w), pins), emap


def _combine_parities(states, options, k: int):
    """One step of the parity-vector DP that joins independent parts.

    ``states`` maps a per-terminal tuple of class-parity vectors to (F, {tid: X});
    ``options`` lists the next part's answers as (parity vectors, F, {tid: X}).
    Every reachable XOR of parities keeps the first smallest union F of size
    at most k, with the per-terminal sides joined.
    """
    new_states = {}
    for contrib, f_part, x_part in options:
        for state, (f_acc, x_acc) in states.items():
            new_state = tuple(tuple(a ^ b for a, b in zip(s, c)) for s, c in zip(state, contrib))
            f_new = f_acc | f_part
            if len(f_new) > k:
                continue
            cur = new_states.get(new_state)
            if cur is not None and len(cur[0]) <= len(f_new):
                continue
            new_states[new_state] = (f_new, {tid: xs | x_part[tid] for tid, xs in x_acc.items()})
    return new_states


def _unbreakable_case(inst: EdgeSetCoverInstance, params: RecursParams):
    """Branch (b): align preliminary partitions, then recurse into small pockets.

    The paper colours the vertices with an (n, nbig, pbig)-universal set to
    reach, for each solution, a colouring that is 0 on a set D of at most
    q·|T| vertices and 1 on its neighbourhood N(D), |N(D)| <= pbig.  D
    holds every vertex where the solution leaves the aligned preliminary
    partitions, and the components of G[D] are the pockets solved by
    recursion.  The colouring that is 0 on D and 1 elsewhere is one such
    colouring, and its small zero components are exactly the components of
    G[D]; so every such D is listed directly, its components as the pocket
    list.  A universal-set colouring may add further small zero components
    away from D.  Those only add other attempts, every candidate of an
    attempt is checked by is_key_solution, and the table keeps the least F
    over all attempts, so leaving them out loses no optimum.
    """
    n, k = inst.g.n, inst.k
    terms = inst.terminals
    nbig = (params.q + 2 * (k + 1)) * len(terms)
    pbig = 2 * (k + 1) * len(terms)
    if n < nbig:
        # the paper states this branch for graphs of at least nbig vertices;
        # the small case decides smaller ones exactly
        return _small_case(inst, params)
    params.bump("unbreakable")
    keys = list(all_keys(inst))
    table = {key: None for key in keys}
    prelim = {}
    for term in terms:
        y = preliminary_partition(inst, term)
        if y is None:
            return table  # no almost-fitting partition exists for this terminal at all
        prelim[term.tid] = y[0]
    verts = set(range(n))
    adj = inst.g.adjacency()
    # every D of at most q·|T| vertices with |N(D)| <= pbig, D = {} first
    pocket_lists = []
    for size in range(params.q * len(terms) + 1):
        for d in itertools.combinations(range(n), size):
            if len({w for v in d for w, _ in adj[v]} - set(d)) <= pbig:
                pocket_lists.append(tuple(tuple(sorted(c))
                                          for c in connected_components(inst.g, d)))
    for align in itertools.product((0, 1), repeat=len(terms)):
        y_side = {}
        for term, flip in zip(terms, align):
            y_side[term.tid] = prelim[term.tid] if flip == 0 else verts - prelim[term.tid]
        for small in pocket_lists:
            interior = set().union(*small)
            fixed = verts - interior
            attempt = _assemble_attempt(inst, params, y_side, fixed, small, adj)
            if attempt is None:
                continue
            for key in keys:
                cand = attempt(key)
                if cand is None:
                    continue
                f_set, x_map = cand
                if not is_key_solution(inst, key, f_set, x_map):
                    continue
                if table[key] is None or len(f_set) < len(table[key][0]):
                    table[key] = (f_set, x_map)
    return table


def _assemble_attempt(inst, params, y_side, fixed, small, adj):
    """Solve one (alignment, pocket list) attempt; returns a per-key assembly closure."""
    k = inst.k
    terms = inst.terminals
    # fixed-region bookkeeping per terminal
    f_fix: Set[int] = set()
    fix_par = {}
    x_fix = {}
    for term in terms:
        x_t = y_side[term.tid] & fixed
        x_fix[term.tid] = x_t
        fix_par[term.tid] = inst.class_parities(x_t)
        w1, w2 = inst.pin(term.tid)
        if not (w1 & fixed) <= x_t or (w2 & x_t):
            return None
        y = y_side[term.tid]
        for eid in inst.g.edge_ids():
            u, v = inst.g.endpoints(eid)
            if u not in fixed or v not in fixed:
                continue
            if ((u in y) != (v in y)) != _required_parity(eid, term):
                if eid in inst.blocked:
                    return None
                f_fix.add(eid)
    if len(f_fix) > k:
        return None
    # sub-solve each pocket (component plus its colored neighborhood)
    pockets = []
    for comp in small:
        comp_set = set(comp)
        hood = {w for v in comp for w, _ in adj[v]} - comp_set
        plus = sorted(comp_set | hood)
        vmap = {v: i for i, v in enumerate(plus)}
        sub, emap = _restricted_instance(inst, vmap)
        sub.w = frozenset(vmap[v] for v in inst.w & comp_set)
        for term in terms:
            pin1, pin2 = sub.pin(term.tid)
            y = y_side[term.tid]
            sub.pins[term.tid] = (pin1 | {vmap[v] for v in hood & y},
                                  pin2 | {vmap[v] for v in hood - y})
        if sub.g.n >= inst.g.n:
            # the closed neighborhood did not shrink; recursion would not progress
            params.bump("pocket_fallback")
            sub_table = _small_case(sub, params)
        else:
            sub_table = recurs(sub, params)
        # each answer adds the sides and parities of the pocket's interior only
        options = []
        for (_, lr_sub), ans in sub_table.items():
            if ans is None:
                continue
            f_sub, x_sub = ans
            x_in = {tid: {plus[v] for v in xs} & comp_set for tid, xs in x_sub.items()}
            options.append((lr_sub, (tuple(inst.class_parities(x_in[t.tid]) for t in terms),
                                     frozenset(emap[e] for e in f_sub), x_in)))
        pockets.append((comp_set, vmap, options))

    def assemble(key):
        h, lr = key
        for i, term in enumerate(terms):
            l_set, r_set = lr[i], inst.w - lr[i]
            if not (l_set & fixed) <= x_fix[term.tid]:
                return None
            if (r_set & fixed) & x_fix[term.tid]:
                return None
        zero = tuple(tuple([0] * inst.t) for _ in terms)
        states = {zero: (frozenset(f_fix), x_fix)}
        for comp_set, vmap, options in pockets:
            # the sub key's boundary split must agree with the parent key
            want = tuple(frozenset(vmap[v] for v in l_set if v in comp_set) for l_set in lr)
            states = _combine_parities(states, [opt for lr_sub, opt in options if lr_sub == want], k)
            if not states:
                return None
        target = tuple(
            tuple(hb ^ fb for hb, fb in zip(h[i], fix_par[terms[i].tid]))
            for i in range(len(terms)))
        hit = states.get(target)
        if hit is None:
            return None
        f_set, x_map = hit
        return frozenset(f_set), {tid: frozenset(xs) for tid, xs in x_map.items()}

    return assemble


def _breakable_case(inst: EdgeSetCoverInstance, params: RecursParams, sep):
    """Branch (c): solve the Q side, collapse redundant vertices, recurse on G*."""
    params.bump("breakable")
    q_side, p_side = (set(sep.x), set(sep.y))
    if len(q_side & inst.w) > len(p_side & inst.w):
        q_side, p_side = p_side, q_side
    u_set = {v for eid in sep.cross for v in inst.g.endpoints(eid) if v in q_side}
    w_q = frozenset(u_set | (inst.w & q_side))
    q_verts = sorted(q_side)
    vmap = {v: i for i, v in enumerate(q_verts)}
    q_inst, emap = _restricted_instance(inst, vmap)
    q_inst.w = frozenset(vmap[v] for v in w_q)
    q_table = recurs(q_inst, params)
    if all(ans is None for ans in q_table.values()):
        return {key: None for key in all_keys(inst)}
    # vertices that must survive: endpoints of answer edges, blocked endpoints, boundary
    v_protect: Set[int] = set(w_q)
    for ans in q_table.values():
        if ans is None:
            continue
        for e in ans[0]:
            v_protect.update(q_verts[v] for v in q_inst.g.endpoints(e))
    for eid in inst.blocked:
        for v in inst.g.endpoints(eid):
            if v in q_side:
                v_protect.add(v)
    # redundant grouping of the remaining Q vertices by full behavioral signature
    sig_of: Dict[int, Tuple] = {}
    for v in sorted(q_side - v_protect):
        nv = vmap[v]
        pin_sig = tuple((v in inst.pin(t.tid)[0], v in inst.pin(t.tid)[1])
                        for t in inst.terminals)
        side_sig = []
        for ans in q_table.values():
            if ans is None:
                side_sig.append(None)
            else:
                side_sig.append(tuple(nv in ans[1][t.tid] for t in inst.terminals))
        sig_of[v] = (inst.classes[v], pin_sig, tuple(side_sig))
    groups: Dict[Tuple, List[int]] = {}
    for v, sig in sig_of.items():
        groups.setdefault(sig, []).append(v)
    z_set: Set[int] = set()
    rep_of: Dict[int, int] = {}
    for members in groups.values():  # each in ascending vertex order
        if len(members) % 2 == 0:
            members = members[:-1]  # drop one to make the set odd; it stays ordinary
        if len(members) < 2:
            continue
        rep = members[0]
        for v in members[1:]:
            z_set.add(v)
            rep_of[v] = rep
    if not z_set:
        # no shrinkage possible; the unconditional enumeration is the safe fallback
        params.bump("no_shrink")
        return _small_case(inst, params)
    # G*: each collapsed vertex merges into its representative and its edges come
    # in k+1 copies, except edges inside one redundant set, which never contribute
    keep = sorted(set(range(inst.g.n)) - z_set)
    new_of = {v: i for i, v in enumerate(keep)}
    copies = {}
    for eid, (a, b) in inst.g.edges():
        if a in z_set or b in z_set:
            copies[eid] = 0 if a != b and rep_of.get(a, a) == rep_of.get(b, b) else inst.k + 1
    star, orig_of_star = _restricted_instance(
        inst, {v: new_of[rep_of.get(v, v)] for v in range(inst.g.n)}, copies)
    star_table = recurs(star, params)
    # lift the G* answers back through the Q-side table
    table = {}
    small_table = None  # the unconditional answers, built on the first failed lift
    for key in all_keys(inst):
        h, lr = key
        star_key = (h, tuple(frozenset(new_of[v] for v in l) for l in lr))
        ans = star_table.get(star_key)
        if ans is None:
            table[key] = None
            continue
        f_star_set, x_star = ans
        lifted = _lift_breakable(inst, q_side, p_side, q_table, vmap, q_verts,
                                 emap, new_of, f_star_set, x_star,
                                 orig_of_star, w_q, u_set)
        if lifted is not None and is_key_solution(inst, key, lifted[0], lifted[1]):
            table[key] = lifted
        else:
            params.bump("lift_fail")
            if small_table is None:
                small_table = _small_case(inst, params)
            table[key] = small_table[key]
    return table


def _lift_breakable(inst, q_side, p_side, q_table, q_vmap, q_inv_v, q_emap,
                    new_of, f_star_set, x_star, orig_of_star, w_q, u_set):
    """Combine a replacement-graph answer with the matching Q-side answer.

    Collapsed vertices come in odd same-side groups, so class parities over
    Q minus the collapsed set equal the parities over all of Q.
    """
    star_inv = {i: v for v, i in new_of.items()}
    # per-terminal sides of the surviving vertices, in original labels
    x_orig = {tid: {star_inv[v] for v in xs} for tid, xs in x_star.items()}
    h_q = []
    lr_q = []
    for term in inst.terminals:
        h_q.append(inst.class_parities(x_orig[term.tid] & q_side))
        lr_q.append(frozenset(q_vmap[v] for v in w_q if v in x_orig[term.tid]))
    q_ans = q_table.get((tuple(h_q), tuple(lr_q)))
    if q_ans is None:
        return None
    f_q, x_q = q_ans
    f_q_orig = {q_emap[e] for e in f_q}
    # edges of G[P plus boundary] come from the replacement answer
    outside = p_side | u_set
    f_out = {orig_of_star[e] for e in f_star_set
             if set(inst.g.endpoints(orig_of_star[e])) <= outside}
    f_final = frozenset(f_q_orig | f_out)
    x_final = {}
    for term in inst.terminals:
        xs = {q_inv_v[v] for v in x_q[term.tid]}
        xs |= x_orig[term.tid] & p_side
        x_final[term.tid] = frozenset(xs)
    return f_final, x_final


# ---------------------------------------------------------------------------
# top level


def build_esc(inst: DualInstance, parity_guess: Dict[int, Tuple[int, ...]],
              active_terminals: Optional[Iterable[int]] = None) -> EdgeSetCoverInstance:
    """Edge-Set Cover instance for one parity guess on the basis, with every terminal blocked.

    A terminal's flip map is the sum of the P rows of the classes its guess
    makes odd.  The instance shares the host graph, which no solve changes.
    """
    t, class_sets = vertex_types(inst.p)
    classes = {v: i for i, cls in enumerate(class_sets) for v in cls}
    active = list(inst.terminals if active_terminals is None else active_terminals)
    class_rows = [inst.p.row_bits[min(cls)] for cls in class_sets]
    terms = []
    for eid in active:
        b = tuple(parity_guess[eid])
        f = 0
        for bit, row in zip(b, class_rows):
            if bit:
                f ^= row
        terms.append(EscTerminal(eid, eid, b, f))
    return EdgeSetCoverInstance(inst.graph, inst.k, t, classes, terms, frozenset(inst.terminals))


def _esc_key(inst: EdgeSetCoverInstance) -> Tuple:
    """Everything a root instance's answers depend on: all but the root targets b."""
    return (inst.g.n, tuple(inst.g.edges()), inst.k, inst.t,
            tuple(sorted(inst.classes.items())), inst.blocked,
            tuple((term.tid, term.edge, term.f) for term in inst.terminals))


def _esc_answers(inst: EdgeSetCoverInstance, params: RecursParams):
    """Every root parity target's answer: per-terminal class parities -> (F, {tid: X}).

    W is empty at the root, so a connected graph's recursion table has one
    key per parity target; a disconnected graph joins its components' tables
    over parity splits.
    """
    terms = inst.terminals
    comps = connected_components(inst.g)
    if len(comps) <= 1:
        return {h: ans for (h, _), ans in recurs(inst, params).items() if ans is not None}
    states = {tuple(tuple([0] * inst.t) for _ in terms): (frozenset(), {t.tid: set() for t in terms})}
    for comp in sorted(comps, key=min):
        verts = sorted(comp)
        sub, emap = _restricted_instance(inst, {v: i for i, v in enumerate(verts)})
        options = [(h_sub, frozenset(emap[e] for e in ans[0]),
                    {tid: {verts[v] for v in xs} for tid, xs in ans[1].items()})
                   for (h_sub, _), ans in recurs(sub, params).items()
                   if ans is not None]
        states = _combine_parities(states, options, inst.k)
        if not states:
            break
    return states


def solve_esc(inst: EdgeSetCoverInstance, params: Optional[RecursParams] = None):
    """Optimal (F, per-terminal X) for the root parity targets, or None.

    Without params every component is decided by the small case.  The
    answers for every root are built once per instance content and kept in
    ``params.tables``; each call reads its own root from them.  Every answer
    is checked by ``is_key_solution``, and one that fails raises.
    """
    if params is None:
        params = RecursParams()
    root = tuple(term.b for term in inst.terminals)
    key = _esc_key(inst)
    answers = params.tables.get(key)
    if answers is None:
        answers = params.tables[key] = _esc_answers(inst, params)
    hit = answers.get(root)
    if hit is None:
        return None
    f_set, x_map = frozenset(hit[0]), {tid: frozenset(xs) for tid, xs in hit[1].items()}
    if not is_key_solution(inst, (root, tuple(frozenset() for _ in root)), f_set, x_map):
        raise AssertionError("an Edge-Set Cover answer failed its definition check")
    return f_set, x_map


def reduce_terminals_dual(inst: DualInstance, tree: bool = True) -> Reduction:
    """The terminal reduction in the dual matroid, read off the kernel of A."""
    return terminal_reduction(inst, nullspace(inst.a_matrix), tree)


def solve(inst: DualInstance, params: Optional[RecursParams] = None,
          stats: Optional[Dict[str, int]] = None
          ) -> Optional[Tuple[FrozenSet[int], Dict[int, CocycleCertificate]]]:
    """Full dual pipeline; returns a verified (F, per-terminal certificates) or None.

    Runs ``default_solve`` on the kernel of A, whose packed vectors are
    cycles, after ``reduce_terminals_dual``, with the parity guesses as its
    fallback. Every F is certified by ``dual_span_contains`` on ``inst``. A
    solve with params skips the search tree and the reduction's reads for
    it, so its "no" rows still run the recursion.
    """
    stats = {} if stats is None else stats
    red = reduce_terminals_dual(inst, tree=params is None)
    params = params or RecursParams()
    return default_solve(inst, dual_span_contains, red,
                         lambda: _cover_by_guesses(inst, red.basis, params, stats), stats)


def _cover_by_guesses(inst: DualInstance, kept: Tuple[int, ...], params: RecursParams,
                      stats: Dict[str, int]) -> Iterator[FrozenSet[int]]:
    """The parity guesses' candidate F's for the terminal basis ``kept``, in guess order.

    ``kept`` is the nonempty basis from ``reduce_terminals_dual``. All
    guesses share ``params.tables``, so each distinct tuple of flip maps
    builds one ESC table; ``stats["guesses"]`` counts the guesses and
    ``stats["esc_tables"]`` the tables built here.
    """
    tables_before = len(params.tables)
    t, _ = vertex_types(inst.p)
    for combo in itertools.product(sorted(itertools.product((0, 1), repeat=t)),
                                   repeat=len(kept)):
        guess = dict(zip(kept, combo))
        stats["guesses"] = stats.get("guesses", 0) + 1
        esc = build_esc(inst, guess, active_terminals=kept)
        sol = solve_esc(esc, params)
        stats["esc_tables"] = len(params.tables) - tables_before
        if sol is not None:
            yield frozenset(sol[0])
