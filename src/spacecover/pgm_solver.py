"""Primal pipeline: reduce a perturbed-graphic-matroid cover instance to Pattern Cover."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from . import pattern_cover
from .binmatroid import (Reduction, SpanCertificate, default_solve, span_contains,
                         terminal_reduction)
from .gf2 import Gf2Matrix, distinct_columns
from .instances import PrimalInstance
from .multigraph import MultiGraph, count_simple_cycles, spanning_forest
from .pattern_cover import PatternCoverInstance

__all__ = [
    "GuessContext",
    "reduce_terminals",
    "edge_types",
    "enumerate_backbones",
    "terminal_target_vertices",
    "build_pattern_instances",
    "solve",
]

BACKBONE_EDGE_CAP = 8


@dataclass
class GuessContext:
    """One branch of the guess chain: backbone, edge typing, parities, and (D, f*)."""

    backbone: MultiGraph
    forest: FrozenSet[int]                  # spanning forest edge ids of the backbone
    extra: Tuple[int, ...]                  # remaining (cycle-closing) backbone edges
    f: Dict[int, int]                       # f* on the extra-edge endpoints
    f_e: Dict[int, int]                     # f*_E on the extra edges
    ell: Dict[int, int]                     # forest backbone edge -> type in [1, t]
    h: Dict[int, Tuple[int, ...]]           # terminal edge id -> parity vector
    d: FrozenSet[int]                       # pinned backbone vertices
    f_star: Dict[int, int]                  # d -> host vertices, f's keys first
    f_star_e: Dict[int, int]                # backbone edges inside d -> host edges
    e_subsets: Dict[int, FrozenSet[int]]    # terminal -> witnessing backbone edge subset


def reduce_terminals(inst: PrimalInstance) -> Reduction:
    """The terminal reduction in the matroid of A, read off A's rows."""
    return terminal_reduction(inst, inst.a_matrix.row_bits)


def edge_types(p: Gf2Matrix) -> Tuple[int, Dict[int, int]]:
    """Number of distinct P-columns and the column -> type map (types 1..t)."""
    classes, cls_of = distinct_columns(p)
    return len(classes), {j: c + 1 for j, c in cls_of.items()}


@lru_cache(maxsize=None)
def _backbone_classes(me: int) -> Tuple[Tuple[MultiGraph, int], ...]:
    """(representative, simple-cycle count) of every class of graphs with exactly me edges.

    A candidate (vertex pairs from ``combinations_with_replacement``, every
    vertex used) is kept unless a kept graph of its sorted (degree, loop
    count) profile maps to it, so each class keeps its least labelling. Built
    on first use and shared after: nothing may mutate a cached graph.
    """
    classes = []
    kept: Dict[Tuple[Tuple[int, int], ...], List[MultiGraph]] = {}
    for nv in range(1, 2 * me + 1):
        slots = [(i, j) for i in range(nv) for j in range(i, nv)]
        for combo in itertools.combinations_with_replacement(slots, me):
            if len({v for e in combo for v in e}) != nv:
                continue
            g = MultiGraph(nv, combo)
            profile = tuple(sorted((sum(row), row[v]) for v, row in enumerate(_pair_counts(g))))
            same = kept.setdefault(profile, [])
            if all(next(_vertex_maps(h, g), None) is None for h in same):
                same.append(g)
                classes.append((g, count_simple_cycles(g)))
    return tuple(classes)


def enumerate_backbones(k: int, t: int) -> Iterator[MultiGraph]:
    """All graphs with 1..k edges, <= 2^t simple cycles, no isolated vertices, up to isomorphism.

    Emitted in ascending edge count; one canonical representative per class.
    The yielded graphs are shared across calls and must not be mutated.
    """
    if k > BACKBONE_EDGE_CAP:
        raise ValueError("beyond supported range: budget %d exceeds BACKBONE_EDGE_CAP = %d"
                         % (k, BACKBONE_EDGE_CAP))
    cycle_cap = 1 << t
    for me in range(1, k + 1):
        for g, cycles in _backbone_classes(me):
            if cycles <= cycle_cap:
                yield g


def terminal_target_vertices(w: int, h_w: Tuple[int, ...], classes: List[int]) -> int:
    """(Sum of selected class columns) + W, packed: bit v marks a vertex the terminal must hit."""
    acc = w
    for b, c in zip(h_w, classes):
        if b:
            acc ^= c
    return acc


def _vertices(bits: int) -> List[int]:
    """The vertices of a packed vertex set, ascending."""
    return [v for v in range(bits.bit_length()) if (bits >> v) & 1]


def _slot(typ: int, loop: bool) -> int:
    """The slot bit of an edge of type ``typ``: bit 2·typ + 1 for a loop, 2·typ otherwise."""
    return 1 << (2 * typ + loop)


def _odd_degree(h: MultiGraph, edge_subset) -> FrozenSet[int]:
    deg: Dict[int, int] = {}
    for eid in edge_subset:
        u, v = h.endpoints(eid)
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return frozenset(v for v, d in deg.items() if d % 2 == 1)


def _bundles(h: MultiGraph) -> Dict[Tuple[int, int], List[int]]:
    """Edge ids per endpoint pair (smaller end first); the loops at a vertex form one bundle."""
    bundles: Dict[Tuple[int, int], List[int]] = {}
    for eid, (u, v) in h.edges():
        bundles.setdefault((min(u, v), max(u, v)), []).append(eid)
    return bundles


@lru_cache(maxsize=None)
def _class_plan(backbone: MultiGraph):
    """What one backbone class gives every solve, built on first use and shared after.

    (spanning forest, extra edges, their endpoints Ṽ packed, witnesses). The
    witnesses are every edge subset, as a set and packed, with its packed
    odd-degree set O, |O|, and the edges with both ends in O, by size, then
    in ``itertools.combinations`` order. Nothing here depends on the
    instance.
    """
    forest = frozenset(spanning_forest(backbone))
    extra = tuple(eid for eid in backbone.edge_ids() if eid not in forest)
    vtilde = sum(1 << v for v in {v for eid in extra for v in backbone.endpoints(eid)})
    edges = backbone.edges()
    witnesses = []
    for size in range(len(edges) + 1):
        for sub in itertools.combinations(backbone.edge_ids(), size):
            odd = _odd_degree(backbone, sub)
            inside = tuple(eid for eid, (u, v) in edges if u in odd and v in odd)
            witnesses.append((frozenset(sub), sum(1 << eid for eid in sub),
                              sum(1 << v for v in odd), len(odd), inside))
    return forest, extra, vtilde, tuple(witnesses)


def _pair_counts(g: MultiGraph) -> List[List[int]]:
    """The edge count of every vertex pair of g, symmetric; the diagonal counts loops."""
    counts = [[0] * g.n for _ in range(g.n)]
    for _eid, (u, v) in g.edges():
        counts[u][v] += 1
        counts[v][u] = counts[u][v]
    return counts


def _vertex_maps(g: MultiGraph, h: MultiGraph) -> Iterator[Tuple[int, ...]]:
    """Every vertex bijection g -> h keeping the edge count of each vertex pair, loops included.

    Entry i is the image of vertex i. A backtracking search maps vertex i to
    x only when the edge counts from i to itself and to each earlier vertex
    equal those from x to their images.
    """
    if g.n != h.n:
        return
    cg, ch = _pair_counts(g), _pair_counts(h)

    def extend(sigma: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        if len(sigma) == g.n:
            yield sigma
            return
        for x in range(h.n):
            if x not in sigma and all(c == ch[x][y] for c, y in zip(cg[len(sigma)], sigma + (x,))):
                yield from extend(sigma + (x,))

    yield from extend(())


def _edge_automorphisms(h: MultiGraph) -> List[Tuple[int, ...]]:
    """Every distinct edge permutation of an automorphism of h (edge ids 0..m-1), sorted.

    Each vertex automorphism from ``_vertex_maps`` maps every bundle of
    parallel edges onto its image bundle in every order. Entry e is e's image.
    """
    bundles = _bundles(h)
    perms = set()
    for s in _vertex_maps(h, h):
        moves = [(es, bundles[min(s[u], s[v]), max(s[u], s[v])]) for (u, v), es in bundles.items()]
        for images in itertools.product(*(itertools.permutations(to) for _es, to in moves)):
            pi = [0] * h.num_edges
            for (es, _to), img in zip(moves, images):
                for e, x in zip(es, img):
                    pi[e] = x
            perms.add(tuple(pi))
    return sorted(perms)


def _canonical_typings(backbone: MultiGraph, t: int) -> Tuple[Tuple[int, ...], ...]:
    """The least typing of each orbit of the backbone's edge automorphisms, ascending,
    among the typings whose parallel edges differ in type.

    Typing ``tau`` gives edge e the type ``tau[e]`` in 1..t, and the orbit of
    tau is every ``tau o pi``. An automorphism turns an embedding of
    (H, tau o pi) into one of (H, tau) with the same image set F, so the
    chain needs one typing per orbit. Two parallel edges of one type would
    need one host edge (the host has one per endpoint pair and type after
    deduplication); an automorphism maps bundles onto bundles, so the test
    keeps or drops whole orbits.
    """
    perms = _edge_automorphisms(backbone)[1:]   # the identity sorts first
    bundles = [es for es in _bundles(backbone).values() if len(es) > 1]
    return tuple(tau for tau in itertools.product(range(1, t + 1), repeat=backbone.num_edges)
                 if all(len({tau[e] for e in es}) == len(es) for es in bundles)
                 and all(tau <= tuple(tau[e] for e in pi) for pi in perms))


@lru_cache(maxsize=None)
def _typings(backbone: MultiGraph, t: int) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    """The canonical typings of the backbone over t types, and the slot mask of each.

    A typing's slot mask ORs the ``_slot`` of its edges, so a host whose
    non-terminal edges fill the mask ``all_slots`` has an edge of each slot
    the typing needs iff ``need & ~all_slots == 0``. Built on first use and
    shared after; equal masks share one int, so the masks cost one
    reference per typing.
    """
    taus = _canonical_typings(backbone, t)
    loops = [backbone.is_loop(eid) for eid in backbone.edge_ids()]
    shared: Dict[int, int] = {}
    needs = []
    for tau in taus:
        need = 0
        for typ, loop in zip(tau, loops):
            need |= _slot(typ, loop)
        needs.append(shared.setdefault(need, need))
    return taus, tuple(needs)


def _injective_assignments(domains: Sequence[Sequence[int]], tests: List[List[Tuple[int, int]]],
                           allowed) -> Iterator[Tuple[int, ...]]:
    """Injective images of the positions, one from each domain, each failing branch cut.

    Yields what ``itertools.product(*domains)`` yields, in its order, minus
    every tuple that repeats a value or fails a test. ``tests[j]`` holds the
    (i, label) pairs with ``i <= j`` decidable once position j is assigned,
    and a pair passes when ``(image of i, image of j, label)`` is in ``allowed``.
    """
    size = len(domains)
    images = [0] * size
    used: Set[int] = set()

    def walk(j: int) -> Iterator[Tuple[int, ...]]:
        if j == size:
            yield tuple(images)
            return
        for x in domains[j]:
            if x in used:
                continue
            images[j] = x
            for i, label in tests[j]:
                if (images[i], x, label) not in allowed:
                    break
            else:
                used.add(x)
                yield from walk(j + 1)
                used.discard(x)

    return walk(0)


class _TargetRow(dict):
    """One terminal's (parity vector, target, inner slots) per parity mask, each filled on first use.

    Bit ``t - j`` of a mask is the parity of type j, so ascending masks run in
    sorted vector order. The target is packed, and its inner slots OR the
    ``_slot`` of every host edge with both ends in it; ``host_slots`` holds
    (packed endpoints, slot) of each non-terminal host edge. Entries are
    filled on demand, not for all 2^t masks: t is not capped, and a backbone
    of at most k edges reaches few.
    """

    def __init__(self, w: int, classes: List[int], host_slots: Set[Tuple[int, int]]):
        super().__init__()
        self.w = w
        self.classes = classes
        self.host_slots = host_slots

    def __missing__(self, mask: int) -> Tuple[Tuple[int, ...], int, int]:
        t = len(self.classes)
        b = tuple((mask >> (t - 1 - i)) & 1 for i in range(t))
        target = terminal_target_vertices(self.w, b, self.classes)
        inner = 0
        for ends, slot in self.host_slots:
            if not ends & ~target:
                inner |= slot
        entry = self[mask] = (b, target, inner)
        return entry


def _witness_options(witnesses, tau: Sequence[int], loops: Sequence[int], t: int,
                     rows: List[_TargetRow]):
    """Per terminal, its witness choices under one typing of the backbone edges, or None.

    ``witnesses`` comes from ``_class_plan``, ``tau`` gives each backbone
    edge its type in 1..t (type j is bit t - j of a parity mask), ``loops``
    marks the loops, and ``rows`` holds each terminal's targets. A terminal
    scans the witnesses in order and keeps one when |O| is the size of its
    target T at the witness's mask (every witness of one (terminal, vector)
    has that target) and T holds a host edge of each slot the edges inside
    O need: f* maps O onto T, so each such edge needs a host edge there.
    Each odd set keeps its first subset; its needed slots depend on O
    alone. A choice is (parity vector, target, odd set -> subset), in
    sorted vector order. None at the first terminal with no choice: the
    typing admits no guess.
    """
    masks = [0]                 # masks[bits]: the parity mask of the packed edge subset
    for typ in tau:
        bit = 1 << (t - typ)
        masks += [mask ^ bit for mask in masks]
    choices = []
    for row in rows:
        by_mask: Dict[int, Dict[int, FrozenSet[int]]] = {}
        for sub, bits, odd, size, inside in witnesses:
            mask = masks[bits]
            _b, target, inner = row[mask]
            if size != target.bit_count():
                continue
            odds = by_mask.setdefault(mask, {})
            if odd in odds:
                continue
            need = 0
            for eid in inside:
                need |= 1 << (2 * tau[eid] + loops[eid])   # its _slot
            if not need & ~inner:
                odds[odd] = sub
        options = [row[mask][:2] + (odds,) for mask, odds in sorted(by_mask.items()) if odds]
        if not options:
            return None
        choices.append(options)
    return choices


def _bounded_parities(choices, cap: int) -> Iterator[Tuple[Tuple[Tuple, ...], int]]:
    """(choice per terminal, packed V*) in ``itertools.product`` order over ``choices``.

    A choice's second field is its packed target, and V* is the union of the
    chosen targets; a branch is cut as soon as V* exceeds ``cap`` vertices,
    since adding targets never shrinks it.
    """
    picked: List[Tuple] = []

    def walk(i: int, union: int):
        if i == len(choices):
            yield tuple(picked), union
            return
        for choice in choices[i]:
            grown = union | choice[1]
            if grown.bit_count() <= cap:
                picked.append(choice)
                yield from walk(i + 1, grown)
                picked.pop()

    return walk(0, 0)


def build_pattern_instances(inst: PrimalInstance) -> Iterator[Tuple[PatternCoverInstance, GuessContext]]:
    """Every admissible guess of the chain, as a Pattern Cover instance plus its context.

    The input must already be terminal-reduced and column-deduplicated. The
    chain runs backbone -> edge typing -> parity choice -> odd-set choice ->
    f*, and emits its guesses in that nesting order:

    - per instance: the edge types, each terminal's target and the slots of
      the host edges inside it per parity mask (filled on first use), the
      slots of all host edges, the host edge by (endpoints, type), and one
      labelled host (the terminal edges removed) that every guess shares;
    - per backbone (catalog order): its class plan, built once per process;
    - per canonical typing (ascending): one per orbit of the backbone's edge
      automorphisms whose parallel edges differ in type, kept when the host
      has an edge of each backbone edge's slot (a loop of each loop's type,
      a non-loop edge of each other edge's type): one AND of the typing's
      cached slot mask against the host's. Its witness options drop an odd
      set whose inside edges have no host edge of their slot inside the
      target, and the typing at the first terminal with no witness left;
    - per parity choice (``itertools.product`` order): walked with the
      branch cut once V* outgrows the backbone;
    - per odd-set choice and f*: ``_expand_guess``.
    """
    classes, cls_of = distinct_columns(inst.p)
    t = len(classes)
    type_of = {eid: cls_of[eid] + 1 for eid in inst.graph.edge_ids()}
    term_set = set(inst.terminals)
    # lookup: (host endpoints in either order, type) -> host edge (unique after dedup)
    edge_by_sig: Dict[Tuple[int, int, int], int] = {}
    host_slots: Set[Tuple[int, int]] = set()
    all_slots = 0
    for ge in inst.graph.edge_ids():
        if ge in term_set:
            continue
        x, y = inst.graph.endpoints(ge)
        slot = _slot(type_of[ge], x == y)
        host_slots.add(((1 << x) | (1 << y), slot))
        all_slots |= slot
        for sig in ((x, y, type_of[ge]), (y, x, type_of[ge])):
            edge_by_sig.setdefault(sig, ge)
    rows = [_TargetRow(inst.a_column(w), classes, host_slots) for w in inst.terminals]
    host = pattern_cover.HostIndex(inst.graph.without_edges(term_set),
                                   {ge: typ for ge, typ in type_of.items() if ge not in term_set})

    for backbone in enumerate_backbones(inst.k, t):
        if backbone.n > inst.graph.n:
            continue
        plan = _class_plan(backbone)
        witnesses = plan[3]
        loops = [backbone.is_loop(eid) for eid in backbone.edge_ids()]
        for tau, need in zip(*_typings(backbone, t)):
            if need & ~all_slots:
                continue
            choices = _witness_options(witnesses, tau, loops, t, rows)
            if choices is None:
                continue
            for picked, v_star in _bounded_parities(choices, backbone.n):
                yield from _expand_guess(inst, backbone, plan, tau, picked, v_star,
                                         edge_by_sig, host)


def _expand_guess(inst, backbone, plan, tau, picked, v_star, edge_by_sig, host):
    """Every (D, f*) of one parity choice: one f* search per odd-set choice.

    ``picked`` holds each terminal's (parity vector, target, odd set ->
    subset) choice, and V* is the union of the targets, all vertex sets
    packed. D is the extra-edge endpoints Ṽ plus one odd set O_w per
    terminal, and terminal w is witnessed exactly when the injective f* maps
    O_w onto its target. So a vertex of D may only go to a host vertex that
    lies in the same targets as the vertex lies in odd sets: a target vertex
    of the same signature, or a host vertex in no target for a vertex of Ṽ
    in no odd set. An
    odd-set choice is dropped unless each signature has as many vertices in
    D as in V* (the Venn count); ``_injective_assignments`` then finds every
    f*, testing each backbone edge inside D against a host edge of its type.
    f and f_E are read off f*. Guesses come per odd-set choice in
    ``itertools.product`` order, then per f* in the lexicographic order of
    its images on sorted D. Distinct edges inside D get distinct host
    edges, because f* is injective and parallel edges differ in type. Each
    guess's Pattern Cover instance reads the shared ``host`` and excludes
    the f*_E images from it.
    """
    forest, extra, vtilde, _witnesses = plan
    targets = [target for _b, target, _odds in picked]
    by_sig: Dict[int, List[int]] = {}
    for y in _vertices(v_star):
        by_sig.setdefault(sum(1 << i for i, tg in enumerate(targets) if (tg >> y) & 1),
                          []).append(y)
    outside = [x for x in range(inst.graph.n) if not (v_star >> x) & 1]
    size = v_star.bit_count()
    edges = backbone.edges()
    for odds in itertools.product(*(choice[2] for choice in picked)):
        union = 0
        for odd in odds:
            union |= odd
        if union.bit_count() != size:
            continue
        d = _vertices(union | vtilde)
        sigs = [sum(1 << i for i, odd in enumerate(odds) if (odd >> v) & 1) for v in d]
        if any(sig and sigs.count(sig) != len(by_sig.get(sig, ())) for sig in sigs):
            continue
        at = {v: i for i, v in enumerate(d)}
        inside = [(eid, u, v) for eid, (u, v) in edges if u in at and v in at]
        tests: List[List[Tuple[int, int]]] = [[] for _ in d]
        for eid, u, v in inside:
            i, j = sorted((at[u], at[v]))
            tests[j].append((i, tau[eid]))
        domains = [by_sig[sig] if sig else outside for sig in sigs]
        for images in _injective_assignments(domains, tests, edge_by_sig):
            image_of = dict(zip(d, images))
            f = {v: image_of[v] for v in d if (vtilde >> v) & 1}
            f_star = dict(f)
            f_star.update((v, x) for v, x in image_of.items() if v not in f)
            f_star_e = {eid: edge_by_sig[f_star[u], f_star[v], tau[eid]] for eid, u, v in inside}
            ctx = GuessContext(
                backbone=backbone, forest=forest, extra=extra, f=f,
                f_e={eid: f_star_e[eid] for eid in extra},
                ell={eid: tau[eid] for eid in sorted(forest)},
                h={w: choice[0] for w, choice in zip(inst.terminals, picked)},
                d=frozenset(d), f_star=f_star, f_star_e=f_star_e,
                e_subsets={w: choice[2][odd]
                           for w, choice, odd in zip(inst.terminals, picked, odds)})
            pattern = backbone.without_edges(set(f_star_e))
            pci = PatternCoverInstance(
                g=host.g, ell_g=host.ell_g, h=pattern,
                ell_h={eid: tau[eid] for eid in pattern.edge_ids()}, u=ctx.d, f=f_star,
                excluded=frozenset(f_star_e.values()), host=host)
            yield pci, ctx


def solve(inst: PrimalInstance,
          stats: Optional[Dict[str, int]] = None
          ) -> Optional[Tuple[FrozenSet[int], SpanCertificate]]:
    """Full primal pipeline; returns a verified (F, certificate) or None.

    Runs ``default_solve`` on the rows of A, whose packed vectors are
    cocycles, after ``reduce_terminals``, with the guess chain as its
    fallback. Every F is certified by ``span_contains`` on ``inst``.
    """
    stats = {} if stats is None else stats
    red = reduce_terminals(inst)
    return default_solve(inst, span_contains, red, lambda: _cover_by_guesses(inst, red, stats),
                         stats)


def _chain_instance(inst: PrimalInstance, red: Reduction) -> Tuple[PrimalInstance, List[int]]:
    """The guess chain's instance and ``keep``: its edge j is edge keep[j] of ``inst``.

    It holds the basis, the non-terminal edges and budget ``red.budget``. Of
    each class of non-terminal edges with equal A columns it keeps the
    lowest, as ``build_pattern_instances`` requires.
    """
    cols = inst.a_matrix.columns()
    first: Dict[int, int] = {}
    for e in inst.nonterminal_edges():
        first.setdefault(cols[e], e)
    keep = sorted([*first.values(), *red.basis])
    reduced = inst.restrict(keep, terminals=red.basis)
    reduced.k = red.budget
    return reduced, keep


def _cover_by_guesses(inst: PrimalInstance, red: Reduction,
                      stats: Dict[str, int]) -> Iterator[FrozenSet[int]]:
    """The guess chain's candidate F's on ``inst`` after ``reduce_terminals``, in guess order.

    ``red`` has a nonempty basis, and the chain runs on ``_chain_instance``,
    built on the first candidate asked for. Each Pattern Cover answer gives
    one F: its embedding's host edges and f*_E's, mapped back to ``inst``'s
    edges through ``keep``. ``stats["guesses"]`` counts the guesses built,
    0 when the chain builds none.
    """
    stats.setdefault("guesses", 0)
    chain, keep = _chain_instance(inst, red)
    for pci, ctx in build_pattern_instances(chain):
        stats["guesses"] += 1
        emb = pattern_cover.solve(pci)
        if emb is not None:
            yield frozenset(keep[e] for e in (*emb.edge_map.values(), *ctx.f_star_e.values()))
