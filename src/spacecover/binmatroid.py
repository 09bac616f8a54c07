"""Span and cocycle certificates of the binary matroid on the columns of a GF(2) matrix."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional

from .gf2 import Gf2Matrix, in_span, support

__all__ = [
    "SpanCertificate",
    "CocycleCertificate",
    "span_contains",
    "is_cocycle",
    "dual_span_contains",
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
