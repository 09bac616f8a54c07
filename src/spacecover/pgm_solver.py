"""Primal pipeline: reduce a perturbed-graphic-matroid cover instance to Pattern Cover."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from . import pattern_cover
from .binmatroid import SpanCertificate, span_contains
from .gf2 import Gf2Matrix, Gf2Vector, basis, distinct_columns
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

    The result carries ``immediate_no`` (terminal basis larger than k) and
    ``merge_map`` (dropped duplicate edge -> surviving representative).
    """
    term_cols = [inst.a_column(e) for e in inst.terminals]
    keep_idx = set(basis(term_cols))
    kept_terms = [e for i, e in enumerate(inst.terminals) if i in keep_idx]
    # duplicate non-terminal columns: keep the lowest edge id of each value
    seen: Dict[int, int] = {}
    merge_map: Dict[int, int] = {}
    kept_edges: Set[int] = set(kept_terms)
    for eid in inst.nonterminal_edges():
        key = inst.a_column(eid).bits
        if key in seen:
            merge_map[eid] = seen[key]
        else:
            seen[key] = eid
            kept_edges.add(eid)
    reduced = inst.restrict(kept_edges, terminals=kept_terms)
    reduced.immediate_no = len(kept_terms) > inst.k
    reduced.merge_map = merge_map
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


def terminal_target_vertices(w: Gf2Vector, h_w: Tuple[int, ...],
                             classes: List[Gf2Vector]) -> FrozenSet[int]:
    """Support of (sum of selected class columns) + W: the vertices a terminal must hit."""
    acc = w
    for b, c in zip(h_w, classes):
        if b:
            acc = acc ^ c
    return acc.support()


def _odd_degree(h: MultiGraph, edge_subset) -> FrozenSet[int]:
    deg: Dict[int, int] = {}
    for eid in edge_subset:
        u, v = h.endpoints(eid)
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return frozenset(v for v, d in deg.items() if d % 2 == 1)


def _pin_enumeration(inst: PrimalInstance, backbone: MultiGraph,
                     extra: List[int]) -> Iterator[Tuple[Dict[int, int], Dict[int, int]]]:
    """All injective (f, f_E) pin choices for the cycle-closing backbone edges."""
    if not extra:
        yield {}, {}
        return
    vtilde = sorted({v for eid in extra for v in backbone.endpoints(eid)})
    term_set = set(inst.terminals)
    # non-terminal host edges by sorted endpoint pair, in edge id order
    by_pair: Dict[Tuple[int, int], List[int]] = {}
    for ge in inst.graph.edge_ids():
        if ge not in term_set:
            x, y = inst.graph.endpoints(ge)
            by_pair.setdefault((min(x, y), max(x, y)), []).append(ge)
    for images in itertools.permutations(range(inst.graph.n), len(vtilde)):
        f = dict(zip(vtilde, images))
        options: List[List[int]] = []
        ok = True
        for eid in extra:
            u, v = backbone.endpoints(eid)
            x, y = f[u], f[v]
            cands = by_pair.get((min(x, y), max(x, y)))
            if not cands:
                ok = False
                break
            options.append(cands)
        if not ok:
            continue
        for combo in itertools.product(*options):
            if len(set(combo)) != len(combo):
                continue
            yield f, dict(zip(extra, combo))


def build_pattern_instances(inst: PrimalInstance) -> Iterator[Tuple[PatternCoverInstance, GuessContext]]:
    """Every admissible guess of the chain, as a Pattern Cover instance plus its context.

    The input must already be terminal-reduced and column-deduplicated.
    """
    t, types = edge_types(inst.p)
    classes, _ = distinct_columns(inst.p)
    type_of = {eid: types[inst.col_of[eid]] for eid in inst.graph.edge_ids()}
    term_set = set(inst.terminals)
    term_cols = {e: inst.a_column(e) for e in inst.terminals}
    n_host = inst.graph.n
    # lookup: (host endpoints sorted, type) -> host edge (unique after dedup)
    edge_by_sig: Dict[Tuple[int, int, int], int] = {}
    for ge in inst.graph.edge_ids():
        if ge in term_set:
            continue
        x, y = inst.graph.endpoints(ge)
        sig = (min(x, y), max(x, y), type_of[ge])
        if sig not in edge_by_sig or ge < edge_by_sig[sig]:
            edge_by_sig[sig] = ge

    # a terminal's target depends only on (terminal, parity vector)
    targets: Dict[Tuple[int, Tuple[int, ...]], FrozenSet[int]] = {}

    for backbone in enumerate_backbones(inst.k, t):
        if backbone.num_edges > inst.k or backbone.n > n_host:
            continue
        forest = frozenset(spanning_forest(backbone))
        extra = [eid for eid in backbone.edge_ids() if eid not in forest]
        forest_list = sorted(forest)
        # every edge subset with its odd-degree set, by size, then combinations order
        all_h_edges = backbone.edge_ids()
        witnesses = [(frozenset(sub), _odd_degree(backbone, sub))
                     for size in range(len(all_h_edges) + 1)
                     for sub in itertools.combinations(all_h_edges, size)]
        for f, f_e in _pin_enumeration(inst, backbone, extra):
            for labels in itertools.product(range(1, t + 1), repeat=len(forest_list)):
                ell = dict(zip(forest_list, labels))
                h_edge_type = {eid: ell[eid] for eid in forest_list}
                for eid in extra:
                    h_edge_type[eid] = type_of[f_e[eid]]
                sub_parities = []
                for sub, _odd in witnesses:
                    parities = [0] * t
                    for eid in sub:
                        parities[h_edge_type[eid] - 1] ^= 1
                    sub_parities.append(tuple(parities))
                # per-terminal feasible (parity vector -> witness subsets)
                per_term: Dict[int, Dict[Tuple[int, ...], List[Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]]]] = {}
                feasible = True
                for w_eid in inst.terminals:
                    opts: Dict[Tuple[int, ...], List] = {}
                    for (sub, odd), b in zip(witnesses, sub_parities):
                        target = targets.get((w_eid, b))
                        if target is None:
                            target = terminal_target_vertices(term_cols[w_eid], b, classes)
                            targets[w_eid, b] = target
                        if len(odd) != len(target) or len(target) > backbone.n:
                            continue
                        opts.setdefault(b, []).append((sub, odd, target))
                    if not opts:
                        feasible = False
                        break
                    per_term[w_eid] = opts
                if not feasible:
                    continue
                for h_combo in itertools.product(*(sorted(per_term[w]) for w in inst.terminals)):
                    h = dict(zip(inst.terminals, h_combo))
                    yield from _expand_guess(inst, backbone, forest, extra, f, f_e, ell,
                                             h, per_term, h_edge_type, type_of,
                                             edge_by_sig, term_set)


def _expand_guess(inst, backbone, forest, extra, f, f_e, ell, h, per_term,
                  h_edge_type, type_of, edge_by_sig, term_set):
    """Enumerate (D, f*) for one parity restriction and emit surviving guesses."""
    # V* is forced: union of the targets of the chosen witnesses plus image(f).
    # Witness subsets with the same parity vector may have different targets?
    # No: the target depends only on (W, parity vector), so it is fixed by h.
    targets = {}
    for w_eid in inst.terminals:
        opts = per_term[w_eid][h[w_eid]]
        targets[w_eid] = opts[0][2]
    v_star = frozenset(f.values()) | frozenset().union(*targets.values()) \
        if targets else frozenset(f.values())
    nv = backbone.n
    if len(v_star) > nv:
        return
    vtilde = sorted(f)
    others = [v for v in range(nv) if v not in f]
    need = len(v_star) - len(vtilde)
    if need < 0:
        return
    free_targets = sorted(v_star - frozenset(f.values()))
    if len(free_targets) != need:
        return  # f image must be inside V*
    for extra_d in itertools.combinations(others, need):
        d = frozenset(vtilde) | frozenset(extra_d)
        for images in itertools.permutations(free_targets):
            f_star = dict(f)
            f_star.update(zip(sorted(extra_d), images))
            # backbone edges with both ends pinned must map to unique host edges
            f_star_e = {}
            ok = True
            for eid in backbone.edge_ids():
                u, v = backbone.endpoints(eid)
                if u not in d or v not in d:
                    continue
                if eid in f_e:
                    f_star_e[eid] = f_e[eid]
                    continue
                x, y = f_star[u], f_star[v]
                sig = (min(x, y), max(x, y), h_edge_type[eid])
                ge = edge_by_sig.get(sig)
                if ge is None:
                    ok = False
                    break
                f_star_e[eid] = ge
            if not ok or len(set(f_star_e.values())) != len(f_star_e):
                continue
            # interesting: each terminal has a witness mapped correctly by f*
            e_subsets = {}
            for w_eid in inst.terminals:
                hit = None
                for sub, odd, target in per_term[w_eid][h[w_eid]]:
                    if odd <= d and frozenset(f_star[v] for v in odd) == target:
                        hit = sub
                        break
                if hit is None:
                    ok = False
                    break
                e_subsets[w_eid] = hit
            if not ok:
                continue
            ctx = GuessContext(backbone=backbone, forest=forest, extra=tuple(extra),
                               f=dict(f), f_e=dict(f_e), ell=dict(ell), h=dict(h),
                               d=d, f_star=f_star, f_star_e=f_star_e,
                               e_subsets=e_subsets)
            host = inst.graph.without_edges(set(f_star_e.values()) | term_set)
            ell_g = {ge: type_of[ge] for ge in host.edge_ids()}
            pattern = backbone.without_edges(set(f_star_e))
            ell_h = {eid: h_edge_type[eid] for eid in pattern.edge_ids()}
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
    matroid = inst.matroid()
    term_cols = [inst.col_of[e] for e in inst.terminals]
    if not reduced.terminals:
        cert = span_contains(matroid, [], term_cols)
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
        cert = span_contains(matroid, [inst.col_of[e] for e in host_edges], term_cols)
        if cert is not None and len(host_edges) <= inst.k:
            return frozenset(host_edges), cert
    return None
