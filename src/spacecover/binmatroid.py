"""Span and cocycle certificates of the binary matroid on the columns of a GF(2) matrix."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .gf2 import Gf2Matrix, in_span, support

__all__ = [
    "SpanCertificate",
    "CocycleCertificate",
    "span_contains",
    "is_cocycle",
    "dual_span_contains",
    "packing_refutation",
]


@dataclass(frozen=True)
class SpanCertificate:
    """Per-terminal witness: terminal column index -> subset of solution columns XOR-ing to it."""

    parts: Dict[int, FrozenSet[int]]

    def verify(self, a: Gf2Matrix) -> bool:
        for w, part in self.parts.items():
            acc = 0
            for e in part:
                acc ^= a.column(e)
            if acc != a.column(w):
                return False
        return True


@dataclass(frozen=True)
class CocycleCertificate:
    """Vertex (row) set X whose row-sum equals the characteristic vector of the edge set."""

    edge_set: FrozenSet[int]
    x: FrozenSet[int]

    def verify(self, a: Gf2Matrix) -> bool:
        acc = 0
        for v in self.x:
            acc ^= a.row_bits[v]
        return support(acc) == self.edge_set


def span_contains(a: Gf2Matrix, f: Iterable[int], t: Iterable[int]) -> Optional[SpanCertificate]:
    """Certificate that every column of t lies in the span of f's columns, or None."""
    f_ids = sorted(set(f))
    t_ids = sorted(set(t))
    if set(f_ids) & set(t_ids):
        raise ValueError("solution and terminal sets overlap")
    f_cols = [a.column(j) for j in f_ids]
    parts: Dict[int, FrozenSet[int]] = {}
    for w in t_ids:
        combo = in_span(f_cols, a.column(w))
        if combo is None:
            return None
        parts[w] = frozenset(f_ids[i] for i in combo)
    return SpanCertificate(parts)


def is_cocycle(a: Gf2Matrix, f: Iterable[int]) -> Optional[CocycleCertificate]:
    """Certificate that f is a cocycle: its characteristic vector lies in the row space."""
    f_ids = frozenset(f)
    combo = in_span(a.row_bits, sum(1 << e for e in f_ids))
    if combo is None:
        return None
    return CocycleCertificate(f_ids, frozenset(combo))


def dual_span_contains(a: Gf2Matrix, f: Iterable[int], t: Iterable[int]) -> Optional[Dict[int, CocycleCertificate]]:
    """Per-terminal certificates that t lies in the dual span of f, or None.

    For each terminal W we need some F_W subseteq f with F_W + {W} a cocycle;
    |f| is parameter-small, so subsets are enumerated directly.
    """
    f_ids = sorted(set(f))
    t_ids = sorted(set(t))
    if set(f_ids) & set(t_ids):
        raise ValueError("solution and terminal sets overlap")
    certs: Dict[int, CocycleCertificate] = {}
    for w in t_ids:
        found = None
        for size in range(len(f_ids) + 1):
            for sub in itertools.combinations(f_ids, size):
                cert = is_cocycle(a, set(sub) | {w})
                if cert is not None:
                    found = cert
                    break
            if found is not None:
                break
        if found is None:
            return None
        certs[w] = found
    return certs


def packing_refutation(space: List[int], terminals: int, budget: int) -> Optional[List[int]]:
    """Witnesses that no F of at most ``budget`` non-terminal elements covers the terminals, or None.

    ``space`` spans the vectors that block a cover, all packed: the row space
    of A in the primal mode (t is in cl(F) iff F meets every cocircuit
    through t) and the kernel of A in the dual mode (t is in cl*(F) iff F
    meets every circuit through t). A witness is a vector of that span with a
    bit in the ``terminals`` mask, and every cover meets its non-terminal
    bits. The witnesses found have pairwise disjoint non-terminal bits, so
    more than ``budget`` of them refute; so does one with no non-terminal bit,
    whose terminal lies outside cl(E - T). Each round keeps the vectors that
    vanish on the non-terminal bits of the witnesses found so far, fully
    reduces them on the non-terminal bits, and takes the one with a terminal
    bit and the fewest non-terminal bits.
    """
    found: List[int] = []
    rows = list(space)
    avoid = 0
    while True:
        # rows already vanish on earlier witnesses, so only the last one's bits are eliminated
        pivots: List[Tuple[int, int]] = []
        free: List[int] = []
        for word in rows:
            for bit, p in pivots:
                if word & bit:
                    word ^= p
            if word & avoid:
                pivots.append((word & avoid & -(word & avoid), word))
            elif word:
                free.append(word)
        reduced: List[Tuple[int, int]] = []
        for word in free:
            for bit, p in reduced:
                if word & bit:
                    word ^= p
            rest = word & ~terminals
            if not rest:
                if word:
                    return found + [word]
                continue
            low = rest & -rest
            reduced = [(bit, p ^ word if p & low else p) for bit, p in reduced]
            reduced.append((low, word))
        rows = [p for _bit, p in reduced]
        best = min((p for p in rows if p & terminals),
                   key=lambda p: (p & ~terminals).bit_count(), default=None)
        if best is None:
            return None
        found.append(best)
        if len(found) > budget:
            return found
        avoid = best & ~terminals
