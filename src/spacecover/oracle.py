"""Exponential-time reference solvers; ground truth for every production algorithm."""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from .binmatroid import (CocycleCertificate, SpanCertificate, dual_span_contains,
                         span_contains)
from .gf2 import spans_all
from .instances import DualInstance, PrimalInstance
from .multigraph import MultiGraph
from .pattern_cover import Embedding, PatternCoverInstance

__all__ = [
    "solve_primal_bruteforce",
    "solve_dual_bruteforce",
    "pattern_cover_bruteforce",
    "eoct_bruteforce",
    "minimal_primal_solutions",
]

# Guards are expressed as a cap on enumerated candidates so structured corpora
# (large m, tiny k) stay usable; they fail loudly, never truncate.
SUBSET_BUDGET = 2_000_000


def _candidate_sets(eids: List[int], k: int):
    """Every subset of eids of at most k elements, by size, after the guard on their count."""
    total = sum(math.comb(len(eids), i) for i in range(min(k, len(eids)) + 1))
    if total > SUBSET_BUDGET:
        raise ValueError("beyond supported range: %d candidate subsets exceed SUBSET_BUDGET = %d"
                         % (total, SUBSET_BUDGET))
    for size in range(min(k, len(eids)) + 1):
        yield from itertools.combinations(eids, size)


def _least_cover(inst, covers: Callable[[Tuple[int, ...]], bool], contains: Callable):
    """The lexicographically first least F (by edge id) with ``covers(F)``, certified, or None.

    Only the answer goes through ``contains``, so the oracle shares no decision with it.
    """
    for sub in _candidate_sets(inst.nonterminal_edges(), inst.k):
        if covers(sub):
            cert = contains(inst.a_matrix, sub, inst.terminals)
            if cert is None:
                raise AssertionError("%s failed on the oracle's answer" % contains.__name__)
            return frozenset(sub), cert
    return None


def _spans_terminals(inst: PrimalInstance) -> Callable[[Tuple[int, ...]], bool]:
    """Whether the columns of a subset span every terminal column; A's columns are read once."""
    cols = inst.a_matrix.columns()
    terms = [cols[w] for w in inst.terminals]
    return lambda sub: spans_all([cols[e] for e in sub], terms)


def solve_primal_bruteforce(inst: PrimalInstance) -> Optional[Tuple[FrozenSet[int], SpanCertificate]]:
    """Lexicographically first minimum F (by edge id) with T in span(F), or None."""
    return _least_cover(inst, _spans_terminals(inst), span_contains)


def solve_dual_bruteforce(inst: DualInstance) -> Optional[Tuple[FrozenSet[int], Dict[int, CocycleCertificate]]]:
    """Lexicographically first minimum F (by edge id) with T in the dual span of F, or None.

    w is in the dual span of F iff ``1 << w`` is a sum of A's rows with F's bits cleared.
    """
    targets = [1 << e for e in inst.terminals]

    def covers(sub) -> bool:
        f_mask = sum(1 << e for e in sub)
        return spans_all([row & ~f_mask for row in inst.a_matrix.row_bits], targets)

    return _least_cover(inst, covers, dual_span_contains)


def pattern_cover_bruteforce(inst: PatternCoverInstance) -> Optional[Embedding]:
    """Enumerate injective vertex maps extending f, then compatible edge choices."""
    kh = inst.h.n
    if kh > 8:
        raise ValueError("pattern brute force capped at 8 pattern vertices")
    if kh > inst.g.n:
        return None
    free = [v for v in range(kh) if v not in inst.u]
    pinned_targets = set(inst.f.values())
    pool = [x for x in range(inst.g.n) if x not in pinned_targets]
    hedges = inst.h.edge_ids()
    for perm in itertools.permutations(pool, len(free)):
        vmap = dict(inst.f)
        vmap.update(zip(free, perm))
        # candidate host edges per pattern edge
        options: List[List[int]] = []
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
            emb = Embedding(vmap, dict(zip(hedges, combo)))
            if emb.verify(inst):
                return emb
    return None


def _is_bipartite(g: MultiGraph, removed: Set[int]) -> bool:
    color: Dict[int, int] = {}
    adj: Dict[int, List[Tuple[int, int]]] = {v: [] for v in range(g.n)}
    for eid, (u, v) in g.edges():
        if eid in removed:
            continue
        if u == v:
            return False
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w, _ in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def eoct_bruteforce(g: MultiGraph, k: int) -> Optional[FrozenSet[int]]:
    """Minimum edge set S (|S| <= k) whose removal makes g bipartite."""
    for sub in _candidate_sets(g.edge_ids(), k):
        if _is_bipartite(g, set(sub)):
            return frozenset(sub)
    return None


def minimal_primal_solutions(inst: PrimalInstance) -> List[FrozenSet[int]]:
    """All inclusion-minimal F with |F| <= k and T in span(F)."""
    covers = _spans_terminals(inst)
    hits: List[FrozenSet[int]] = []
    for sub in _candidate_sets(inst.nonterminal_edges(), inst.k):
        fs = frozenset(sub)
        if not any(other <= fs for other in hits) and covers(sub):
            hits.append(fs)
    return hits
