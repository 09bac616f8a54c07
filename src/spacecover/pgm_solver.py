"""Primal pipeline: reduce a perturbed-graphic-matroid cover instance to Pattern Cover."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from . import pattern_cover
from .binmatroid import SpanCertificate, span_contains
from .gf2 import Gf2Matrix, basis, distinct_columns, support
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
    """One branch of the guess chain: backbone, pins, labels, parities, and (D, f*)."""

    backbone: MultiGraph
    forest: FrozenSet[int]                  # spanning forest edge ids of the backbone
    extra: Tuple[int, ...]                  # remaining (cycle-closing) backbone edges
    f: Dict[int, int]                       # backbone vertex -> host vertex, on extra endpoints
    f_e: Dict[int, int]                     # extra backbone edge -> host edge
    ell: Dict[int, int]                     # forest backbone edge -> type in [1, t]
    h: Dict[int, Tuple[int, ...]]           # terminal edge id -> parity vector
    d: FrozenSet[int]                       # pinned backbone vertices
    f_star: Dict[int, int]                  # d -> host vertices, extends f
    f_star_e: Dict[int, int]                # backbone edges inside d -> host edges
    e_subsets: Dict[int, FrozenSet[int]]    # terminal -> witnessing backbone edge subset


def reduce_terminals(inst: PrimalInstance) -> PrimalInstance:
    """Keep a greedy basis of the terminal columns and drop duplicate non-terminal columns.

    The result carries ``immediate_no`` (terminal basis larger than k).
    """
    term_cols = [inst.a_column(e) for e in inst.terminals]
    keep_idx = set(basis(term_cols))
    kept_terms = [e for i, e in enumerate(inst.terminals) if i in keep_idx]
    # duplicate non-terminal columns: keep the lowest edge id of each value
    seen: Set[int] = set()
    kept_edges: Set[int] = set(kept_terms)
    for eid in inst.nonterminal_edges():
        key = inst.a_column(eid)
        if key not in seen:
            seen.add(key)
            kept_edges.add(eid)
    reduced = inst.restrict(kept_edges, terminals=kept_terms)
    reduced.immediate_no = len(kept_terms) > inst.k
    return reduced


def edge_types(p: Gf2Matrix) -> Tuple[int, Dict[int, int]]:
    """Number of distinct P-columns and the column -> type map (types 1..t)."""
    classes, cls_of = distinct_columns(p)
    return len(classes), {j: c + 1 for j, c in cls_of.items()}


def _canonical_form(n: int, edges: List[Tuple[int, int]]) -> Tuple:
    best = None
    for perm in itertools.permutations(range(n)):
        relab = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
        key = tuple(relab)
        if best is None or key < best:
            best = key
    return (n, best)


@lru_cache(maxsize=None)
def _backbone_classes(me: int) -> Tuple[Tuple[MultiGraph, int], ...]:
    """(representative, simple-cycle count) of every class of graphs with exactly me edges.

    Built the first time a solve reaches me edges, then shared by every later
    call in the process: nothing may mutate a cached graph.
    """
    classes = []
    seen = set()
    for nv in range(1, 2 * me + 1):
        slots = [(i, j) for i in range(nv) for j in range(i, nv)]
        for combo in itertools.combinations_with_replacement(slots, me):
            used = {v for e in combo for v in e}
            if len(used) != nv:
                continue
            key = _canonical_form(nv, list(combo))
            if key in seen:
                continue
            seen.add(key)
            g = MultiGraph(nv, combo)
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


def terminal_target_vertices(w: int, h_w: Tuple[int, ...],
                             classes: List[int]) -> FrozenSet[int]:
    """Support of (sum of selected class columns) + W: the vertices a terminal must hit."""
    acc = w
    for b, c in zip(h_w, classes):
        if b:
            acc ^= c
    return support(acc)


def _odd_degree(h: MultiGraph, edge_subset) -> FrozenSet[int]:
    deg: Dict[int, int] = {}
    for eid in edge_subset:
        u, v = h.endpoints(eid)
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return frozenset(v for v, d in deg.items() if d % 2 == 1)


def _injective_assignments(size: int, codomain: Sequence[int], tests: List[List[int]],
                           allowed) -> Iterator[Tuple[int, ...]]:
    """Injective images of ``size`` positions, each failing branch cut.

    Yields what ``itertools.permutations(codomain, size)`` yields (codomain
    values distinct), in its order, minus every tuple that fails a test.
    ``tests[j]`` holds the positions ``i <= j`` decidable once position j is
    assigned, and the pair passes when ``(image of i, image of j)`` is in
    ``allowed``.
    """
    images = [0] * size
    used: Set[int] = set()

    def walk(j: int) -> Iterator[Tuple[int, ...]]:
        if j == size:
            yield tuple(images)
            return
        for x in codomain:
            if x in used:
                continue
            images[j] = x
            for i in tests[j]:
                if (images[i], x) not in allowed:
                    break
            else:
                used.add(x)
                yield from walk(j + 1)
                used.discard(x)

    return walk(0)


def _host_pairs(inst: PrimalInstance) -> Dict[Tuple[int, int], List[int]]:
    """Non-terminal host edges in edge id order, under both endpoint orders.

    The index also serves as the ``allowed`` set of ``_injective_assignments``.
    """
    term_set = set(inst.terminals)
    by_pair: Dict[Tuple[int, int], List[int]] = {}
    for ge in inst.graph.edge_ids():
        if ge not in term_set:
            x, y = inst.graph.endpoints(ge)
            by_pair.setdefault((x, y), []).append(ge)
            if x != y:
                by_pair.setdefault((y, x), []).append(ge)
    return by_pair


def _pin_enumeration(by_pair: Dict[Tuple[int, int], List[int]], n_host: int,
                     backbone: MultiGraph,
                     extra: List[int]) -> Iterator[Tuple[Dict[int, int], Dict[int, int]]]:
    """All injective (f, f_E) pin choices for the cycle-closing backbone edges.

    ``by_pair`` is ``_host_pairs`` of the instance, which has ``n_host`` vertices.
    """
    if not extra:
        yield {}, {}
        return
    vtilde = sorted({v for eid in extra for v in backbone.endpoints(eid)})
    at = {v: i for i, v in enumerate(vtilde)}
    # an extra edge is decided once its later endpoint has an image
    tests: List[List[int]] = [[] for _ in vtilde]
    for eid in extra:
        i, j = sorted(at[v] for v in backbone.endpoints(eid))
        tests[j].append(i)
    for images in _injective_assignments(len(vtilde), range(n_host), tests, by_pair):
        f = dict(zip(vtilde, images))
        options = []
        for eid in extra:
            u, v = backbone.endpoints(eid)
            options.append(by_pair[f[u], f[v]])
        for combo in itertools.product(*options):
            if len(set(combo)) != len(combo):
                continue
            yield f, dict(zip(extra, combo))


class _TargetRow(dict):
    """One terminal's (parity vector, target) per parity mask, each computed on first use.

    Bit ``t - j`` of a mask is the parity of type j, so ascending masks run in
    sorted vector order. Entries are filled on demand, not for all 2^t
    masks: t is not capped, and a backbone of at most k edges reaches few.
    """

    def __init__(self, w: int, classes: List[int]):
        super().__init__()
        self.w = w
        self.classes = classes

    def __missing__(self, mask: int) -> Tuple[Tuple[int, ...], FrozenSet[int]]:
        t = len(self.classes)
        b = tuple((mask >> (t - 1 - i)) & 1 for i in range(t))
        entry = self[mask] = (b, terminal_target_vertices(self.w, b, self.classes))
        return entry


def _witness_options(witnesses, edge_bit: Dict[int, int], rows: List[_TargetRow]):
    """Per terminal, its witness choices under one typing of the backbone edges, or None.

    ``witnesses`` holds every backbone edge subset with its odd-degree set,
    ``edge_bit`` the parity-mask bit of each backbone edge's type, and
    ``rows`` each terminal's targets. One pass groups the subsets by (parity
    mask, odd-set size), each odd set keeping its first subset. A terminal
    then reads, per mask, the group at the size of its target: every witness
    of one (terminal, vector) has that target. A choice is (parity vector,
    target, odd set -> subset), in sorted vector order. None when some
    terminal has no choice: the typing admits no guess.
    """
    groups: Dict[Tuple[int, int], Dict[FrozenSet[int], FrozenSet[int]]] = {}
    for sub, odd in witnesses:
        mask = 0
        for eid in sub:
            mask ^= edge_bit[eid]
        groups.setdefault((mask, len(odd)), {}).setdefault(odd, sub)
    masks = sorted({mask for mask, _size in groups})
    choices = []
    for row in rows:
        options = []
        for mask in masks:
            b, target = row[mask]
            odds = groups.get((mask, len(target)))
            if odds is not None:
                options.append((b, target, odds))
        if not options:
            return None
        choices.append(options)
    return choices


def _bounded_parities(choices, base: FrozenSet[int],
                      cap: int) -> Iterator[Tuple[Tuple[Tuple, ...], FrozenSet[int]]]:
    """(choice per terminal, V*) in ``itertools.product`` order over ``choices``.

    A choice's second field is its target. V* is ``base`` plus the chosen
    targets; a branch is cut as soon as it exceeds ``cap`` vertices, since
    adding targets never shrinks it.
    """
    picked: List[Tuple] = []

    def walk(i: int, union: FrozenSet[int]):
        if i == len(choices):
            yield tuple(picked), union
            return
        for choice in choices[i]:
            grown = union | choice[1]
            if len(grown) <= cap:
                picked.append(choice)
                yield from walk(i + 1, grown)
                picked.pop()

    return walk(0, base)


def build_pattern_instances(inst: PrimalInstance) -> Iterator[Tuple[PatternCoverInstance, GuessContext]]:
    """Every admissible guess of the chain, as a Pattern Cover instance plus its context.

    The input must already be terminal-reduced and column-deduplicated. Each
    quantity is computed once, at the outermost loop level it depends on,
    and each prune drops a branch before its extensions are enumerated:

    - per instance: the edge types, each terminal's target per parity mask
      (filled on first use) and the host edge indexes;
    - per backbone: the spanning forest, the forest edge endpoints, and
      every edge subset with its odd-degree set;
    - per tuple of extra-edge types: the forest labellings in product order,
      each with its witness options. A labelling under which some terminal
      has no witness is dropped here, once for all pins;
    - per pin (f, f_E): image(f), the free forest edges, and the pinned
      forest edges. A labelling is dropped for this pin when a forest edge
      with both ends pinned has no host edge of its type;
    - per labelling: the parity choices, walked with the branch cut once V*
      outgrows the backbone;
    - per parity choice: (D, f*), read off the witnesses' odd sets by
      ``_expand_guess``. An odd set that disagrees with the pins, and a
      partial f* with an unmatched edge, are dropped there.
    """
    t, types = edge_types(inst.p)
    classes, _ = distinct_columns(inst.p)
    type_of = {eid: types[inst.col_of[eid]] for eid in inst.graph.edge_ids()}
    term_set = set(inst.terminals)
    n_host = inst.graph.n
    by_pair = _host_pairs(inst)
    # lookup: (host endpoints in either order, type) -> host edge (unique after dedup)
    edge_by_sig: Dict[Tuple[int, int, int], int] = {}
    for ge in inst.graph.edge_ids():
        if ge in term_set:
            continue
        x, y = inst.graph.endpoints(ge)
        for sig in ((x, y, type_of[ge]), (y, x, type_of[ge])):
            edge_by_sig.setdefault(sig, ge)
    rows = [_TargetRow(inst.a_column(w), classes) for w in inst.terminals]

    for backbone in enumerate_backbones(inst.k, t):
        if backbone.num_edges > inst.k or backbone.n > n_host:
            continue
        forest = frozenset(spanning_forest(backbone))
        extra = [eid for eid in backbone.edge_ids() if eid not in forest]
        forest_list = sorted(forest)
        forest_ends = [(eid, backbone.endpoints(eid)) for eid in forest_list]
        # every edge subset with its odd-degree set, by size, then combinations order
        all_h_edges = backbone.edge_ids()
        witnesses = [(frozenset(sub), _odd_degree(backbone, sub))
                     for size in range(len(all_h_edges) + 1)
                     for sub in itertools.combinations(all_h_edges, size)]
        labellings_by_extra: Dict[Tuple[int, ...], List[Tuple]] = {}
        for f, f_e in _pin_enumeration(by_pair, n_host, backbone, extra):
            extra_types = tuple(type_of[f_e[eid]] for eid in extra)
            labellings = labellings_by_extra.get(extra_types)
            if labellings is None:
                labellings = labellings_by_extra[extra_types] = []
                for labels in itertools.product(range(1, t + 1), repeat=len(forest_list)):
                    ell = dict(zip(forest_list, labels))
                    edge_type = dict(ell)
                    edge_type.update(zip(extra, extra_types))
                    choices = _witness_options(
                        witnesses, {eid: 1 << (t - typ) for eid, typ in edge_type.items()}, rows)
                    if choices is not None:
                        labellings.append((ell, edge_type, choices))
            image = frozenset(f.values())
            vtilde = frozenset(f)
            pinned_ends = [(eid, f[u], f[v]) for eid, (u, v) in forest_ends if u in f and v in f]
            free_ends = [(eid, u, v) for eid, (u, v) in forest_ends if not (u in f and v in f)]
            for ell, edge_type, choices in labellings:
                if pinned_ends and any((x, y, ell[eid]) not in edge_by_sig
                                       for eid, x, y in pinned_ends):
                    continue
                for picked, v_star in _bounded_parities(choices, image, backbone.n):
                    yield from _expand_guess(inst, backbone, forest, extra, f, f_e, vtilde,
                                             image, free_ends, ell, edge_type, picked, v_star,
                                             type_of, edge_by_sig, term_set)


def _expand_guess(inst, backbone, forest, extra, f, f_e, vtilde, image, free_ends, ell,
                  edge_type, picked, v_star, type_of, edge_by_sig, term_set):
    """Read every (D, f*) of one parity restriction off the witnesses' odd sets.

    ``picked`` holds each terminal's (parity vector, target, odd sets)
    choice, and ``free_ends`` the forest edges without both ends pinned.
    V* (the chosen targets plus image(f)) is forced by the choices, and f*
    is a bijection from D onto V*. So terminal w is witnessed exactly when
    O_w = f*^-1(target_w) is the odd-degree set of one of its witnesses, and
    each choice of one such set per terminal that agrees with the pins fixes
    D: the pinned vertices plus the union of the O_w. f* may then only match
    a vertex of D with a free target that lies in the same targets as the
    vertex lies in odd sets. The guesses are emitted in (D minus the pinned
    vertices, images) order.
    """
    free_targets = sorted(v_star - image)
    need = len(free_targets)
    # per terminal, its target and the odd sets that agree with the pins
    targets = []
    odd_options = []
    for _b, target, odds in picked:
        agree = [odd for odd in odds if all((v in odd) == (x in target) for v, x in f.items())]
        if not agree:
            return
        targets.append(target)
        odd_options.append(agree)
    # signature of a free target: the terminals whose target holds it
    target_class: Dict[int, List[int]] = {}
    for y in free_targets:
        target_class.setdefault(sum(1 << i for i, tg in enumerate(targets) if y in tg), []).append(y)

    found = []
    for odds in itertools.product(*odd_options):
        extra_d = sorted(frozenset().union(*odds) - vtilde)
        if len(extra_d) != need:
            continue
        # signature of a backbone vertex: the chosen odd sets that hold it
        vertex_class: Dict[int, List[int]] = {}
        for v in extra_d:
            vertex_class.setdefault(sum(1 << i for i, odd in enumerate(odds) if v in odd), []).append(v)
        if any(len(target_class.get(sig, ())) != len(vs) for sig, vs in vertex_class.items()):
            continue
        groups = list(vertex_class.items())
        for perms in itertools.product(*(itertools.permutations(target_class[sig])
                                         for sig, _vs in groups)):
            f_star = dict(f)
            for (_sig, vs), ys in zip(groups, perms):
                f_star.update(zip(vs, ys))
            if all((f_star[u], f_star[v], edge_type[eid]) in edge_by_sig
                   for eid, u, v in free_ends if u in f_star and v in f_star):
                found.append((tuple(extra_d), tuple(f_star[v] for v in extra_d), odds))
    found.sort(key=lambda item: item[:2])

    edges = backbone.edges()
    for extra_d, images, odds in found:
        d = vtilde | frozenset(extra_d)
        f_star = dict(f)
        f_star.update(zip(extra_d, images))
        # backbone edges with both ends pinned must map to unique host edges
        f_star_e = {}
        for eid, (u, v) in edges:
            if u in d and v in d:
                f_star_e[eid] = f_e[eid] if eid in f_e else \
                    edge_by_sig[f_star[u], f_star[v], edge_type[eid]]
        if len(set(f_star_e.values())) != len(f_star_e):
            continue
        h = {w_eid: b for w_eid, (b, _target, _odds) in zip(inst.terminals, picked)}
        e_subsets = {w_eid: choice[2][odd]
                     for w_eid, choice, odd in zip(inst.terminals, picked, odds)}
        ctx = GuessContext(backbone=backbone, forest=forest, extra=tuple(extra),
                           f=dict(f), f_e=dict(f_e), ell=dict(ell), h=h,
                           d=d, f_star=f_star, f_star_e=f_star_e,
                           e_subsets=e_subsets)
        host = inst.graph.without_edges(set(f_star_e.values()) | term_set)
        ell_g = {ge: type_of[ge] for ge in host.edge_ids()}
        pattern = backbone.without_edges(set(f_star_e))
        ell_h = {eid: edge_type[eid] for eid in pattern.edge_ids()}
        pci = PatternCoverInstance(g=host, ell_g=ell_g, h=pattern, ell_h=ell_h,
                                   u=d, f=f_star)
        yield pci, ctx


def solve(inst: PrimalInstance,
          stats: Optional[Dict[str, int]] = None
          ) -> Optional[Tuple[FrozenSet[int], SpanCertificate]]:
    """Full primal pipeline; returns a verified (F, certificate) or None."""
    reduced = reduce_terminals(inst)
    if reduced.immediate_no:
        return None
    a = inst.a_matrix
    term_cols = [inst.col_of[e] for e in inst.terminals]
    if not reduced.terminals:
        cert = span_contains(a, [], term_cols)
        if cert is None:
            raise AssertionError("empty terminal basis must span the dropped terminals")
        return frozenset(), cert
    for pci, ctx in build_pattern_instances(reduced):
        if stats is not None:
            stats["guesses"] = stats.get("guesses", 0) + 1
        emb = pattern_cover.solve(pci)
        if emb is None:
            continue
        host_edges = set(emb.edge_map.values()) | set(ctx.f_star_e.values())
        cert = span_contains(a, [inst.col_of[e] for e in host_edges], term_cols)
        if cert is not None and len(host_edges) <= inst.k:
            return frozenset(host_edges), cert
    return None
