"""Span and cocycle certificates of the binary matroid on the columns of a GF(2) matrix."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from .gf2 import Gf2Matrix, _echelon, _fully_reduced, in_span, support
from .instances import SpaceCoverInstance

__all__ = [
    "SpanCertificate",
    "CocycleCertificate",
    "span_contains",
    "is_cocycle",
    "dual_span_contains",
    "Reduction",
    "terminal_reduction",
    "CoverSearch",
    "cover_search",
    "default_solve",
    "SEARCH_NODE_CAP",
]

# The most nodes ``cover_search`` visits, refuted ones and the search for a smaller
# cover included. Decided rows took at most 89 (random, n 64-128, m = 2n, k <= 4), 98
# (r = 0 dual grids up to 32 x 32) and 1,681 (the paper's 3DM reduction at q = 4, seed 2),
# so the cap only bounds the time an undecided row can cost.
SEARCH_NODE_CAP = 2000


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
    combos = in_span([a.column(j) for j in f_ids], [a.column(w) for w in t_ids])
    if combos is None:
        return None
    return SpanCertificate({w: frozenset(f_ids[i] for i in combo)
                            for w, combo in zip(t_ids, combos)})


def is_cocycle(a: Gf2Matrix, f: Iterable[int]) -> Optional[CocycleCertificate]:
    """Certificate that f is a cocycle: its characteristic vector lies in the row space."""
    f_ids = frozenset(f)
    combos = in_span(a.row_bits, [sum(1 << e for e in f_ids)])
    if combos is None:
        return None
    return CocycleCertificate(f_ids, combos[0])


def dual_span_contains(a: Gf2Matrix, f: Iterable[int], t: Iterable[int]) -> Optional[Dict[int, CocycleCertificate]]:
    """Per-terminal certificates that t lies in the dual span of f, or None.

    Terminal w needs a cocycle in f + {w} through w: a sum of rows of A that
    is 1 at w and 0 at every column outside f. With f's bits cleared from
    the rows, that is a set X of rows whose sum is exactly ``1 << w``, so one
    elimination finds X for every terminal, and the cocycle is the support
    of the sum of X's full rows.
    """
    f_ids = sorted(set(f))
    t_ids = sorted(set(t))
    if set(f_ids) & set(t_ids):
        raise ValueError("solution and terminal sets overlap")
    f_mask = sum(1 << e for e in f_ids)
    combos = in_span([row & ~f_mask for row in a.row_bits], [1 << w for w in t_ids])
    if combos is None:
        return None
    certs: Dict[int, CocycleCertificate] = {}
    for w, x in zip(t_ids, combos):
        acc = 0
        for v in x:
            acc ^= a.row_bits[v]
        certs[w] = CocycleCertificate(support(acc), x)
    return certs


def _contract(rows: List[int], bits: int, terminals: int) -> List[int]:
    """The form of the part of span(rows) that vanishes on the candidate ``bits``.

    Lowest bit first, the holder of the bit with the highest pivot is added
    to every other holder, whose lower pivot it leaves in place, and dropped.
    """
    while bits:
        bit = bits & -bits
        bits ^= bit
        held = [((c := w & ~terminals) & -c, i) for i, w in enumerate(rows) if w & bit]
        if held:
            i = max(held)[1]
            top = rows[i]
            rows = [w ^ top if w & bit else w for w in rows[:i] + rows[i + 1:]]
    return rows


def _refuse(rows: List[int], bit: int, terminals: int) -> List[int]:
    """The form of span(rows) with the candidate ``bit`` cleared.

    The row whose pivot was ``bit`` moves its pivot to its next candidate
    bit and is added to the other rows that hold that bit.
    """
    out, top = [], 0
    for w in rows:
        if w & bit:
            w ^= bit
            if not w & ~terminals & (bit - 1):
                top = w
        if w:
            out.append(w)
    low = top & ~terminals
    low &= -low
    return [w ^ top if w & low and w != top else w for w in out] if low else out


def _packing(rows: List[int], terminals: int, budget: int) -> Tuple[List[int], bool]:
    """Witnesses that no F of at most ``budget`` candidate elements covers the terminals.

    ``rows`` is the fully reduced form of the vectors that block a cover, all
    packed: the row space of A in the primal mode (t is in cl(F) iff F meets
    every cocircuit through t) and the kernel of A in the dual mode (t is in
    cl*(F) iff F meets every circuit through t), with the refused bits
    cleared. The candidates are the elements that are neither terminal nor
    refused. A witness is a vector of the span with a terminal bit, and every
    cover meets its candidate bits. The witnesses found have pairwise
    disjoint candidate bits, so more than ``budget`` of them refute; so does
    one with no candidate bit, whose terminal lies outside the closure of the
    candidates. Each round takes a row with a terminal bit and the fewest
    candidate bits, the first on a tie, and contracts its candidate bits
    (``_contract``). Returns the witnesses and whether they refute; without
    a refutation the list stops where no row has a terminal bit, and its
    first witness has the fewest candidate bits of all rows.
    """
    found: List[int] = []
    while True:
        best = min((w for w in rows if w & terminals),
                   key=lambda w: (w & ~terminals).bit_count(), default=None)
        if best is None:
            return found, False
        found.append(best)
        cands = best & ~terminals
        if not cands or len(found) > budget:
            return found, True
        rows = _contract(rows, cands, terminals)


class Reduction(NamedTuple):
    """What ``terminal_reduction`` reads off the mode's space; bit j is column j of A."""

    form: Optional[List[int]]   # the search tree's root form, None when the tree does not run
    basis: Tuple[int, ...]      # the terminals of a greedy basis of their columns, in order
    no: bool                    # the basis is larger than k, so no F of at most k covers it
    budget: int                 # k, lowered to the rank of the non-terminal columns (k without)


def terminal_reduction(inst: SpaceCoverInstance, rows: List[int], tree: bool = True) -> Reduction:
    """The terminal reduction of ``inst`` in the binary matroid whose space has these packed rows.

    ``rows`` span the row space of A (primal) or the kernel of A (dual). The
    pivots of an echelon form of the rows on the terminal bits are the
    greedy basis of the terminal columns in column order, which is
    ``inst.terminals`` order. A least F is independent, so it holds no more
    elements than the rank of the non-terminal columns. With ``tree`` set,
    the rows are fully reduced on the non-terminal bits once: that form is
    the search tree's root, that rank is the number of its rows with a
    non-terminal bit, and the basis is read off its rows, which span the
    same terminal bits as the space. ``tree`` False skips the form and the
    clamp.
    """
    terms = sum(1 << e for e in inst.terminals)
    form, budget = None, inst.k
    if tree:
        rows = form = _fully_reduced(rows, ~terms)
        budget = min(budget, sum(1 for row in form if row & ~terms))
    pivots = {p & -p for p in _echelon(row & terms for row in rows)}
    kept = tuple(e for e in inst.terminals if 1 << e in pivots)
    return Reduction(form, kept, len(kept) > inst.k, budget)


class CoverSearch(NamedTuple):
    """What ``cover_search`` found: a refutation, a least cover, or neither within the node cap."""

    nodes: int                      # nodes visited, the root included
    packing: Optional[List[int]]    # the root bound's witnesses when the root refutes
    refuted: bool                   # no cover exists
    cover: Optional[int]            # a least cover's bits, once no smaller one is left


def cover_search(form: List[int], terminals: int, budget: int) -> CoverSearch:
    """Search for a least F of at most ``budget`` candidate elements that covers the terminals.

    ``form`` is a root form as ``_packing`` takes it, ``Reduction.form``,
    and the search eliminates nothing. A node holds F, a refused set R (empty
    at the root) and the fully reduced form of the span's vectors that
    vanish on F, with R's bits cleared: a child updates its parent's form
    by ``_refuse`` and ``_contract``. The node runs the packing bound on its
    form with a budget of the bound less |F|; the root's witnesses are
    ``_packing(form, terminals, budget)``, and their count is a least
    cover's size at least. When no vector has a terminal
    bit, the terminals lie in the closure of F: F is kept and the bound
    becomes |F| - 1, so the nodes left search for smaller covers only.
    Otherwise a node the bound does not refute branches on the candidate
    bits c1 < c2 < ... of the bound's first witness: child i refuses c1 ...
    c(i-1) and adds ci to F. Every cover that contains F and avoids R meets
    those bits, so the children split the node's covers and the tree is
    exact. Depth first, c1's subtree first; past ``SEARCH_NODE_CAP`` nodes
    the search stops undecided, even with a cover kept.
    """
    # (the parent's form less the node's refused bits, the bit the node adds to F, the parent's F)
    stack = [(form, 0, 0)]
    nodes, bound, cover, least = 0, budget, None, 0
    while stack and bound >= least:
        rows, bit, f = stack.pop()
        f |= bit
        left = bound - f.bit_count()
        if left < 0:
            continue
        if nodes >= SEARCH_NODE_CAP:
            return CoverSearch(nodes, None, False, None)
        rows = _contract(rows, bit, terminals)
        nodes += 1
        found, refuted = _packing(rows, terminals, left)
        if refuted:
            if nodes == 1:
                return CoverSearch(nodes, found, True, None)
            continue
        if nodes == 1:
            least = len(found)      # every cover meets each of the root's disjoint witnesses
        if not found:
            cover, bound = f, f.bit_count() - 1
            continue
        children = []
        cands = found[0] & ~terminals
        while cands:
            low = cands & -cands
            children.append((rows, low, f))
            cands ^= low
            if cands:
                rows = _refuse(rows, low, terminals)
        stack.extend(reversed(children))
    return CoverSearch(nodes, None, cover is None, cover)


def default_solve(inst: SpaceCoverInstance, contains: Callable, red: Reduction,
                  fallback: Callable[[], Iterable[FrozenSet[int]]],
                  stats: Dict[str, int]) -> Optional[tuple]:
    """Both modes' default path after their terminal reduction ``red``: (F, certificate) or None.

    A basis larger than k answers "no", and an empty one is covered by
    F = ∅. Otherwise ``cover_search`` runs on ``red.form`` unless it is
    None: it sets ``stats["packing"]`` when its root refutes and
    ``stats["search"]`` when not. Its refutation answers "no", and its cover
    must certify, or this raises. The rows the tree leaves undecided take the
    first F of ``fallback()`` that fits ``inst.k`` and certifies with
    ``contains`` (``span_contains`` or ``dual_span_contains``).
    """
    if red.no:
        return None
    cover = 0 if not red.basis else None
    if red.basis and red.form is not None:
        search = cover_search(red.form, sum(1 << e for e in inst.terminals), red.budget)
        if search.packing is not None:
            stats["packing"] = len(search.packing)
            return None
        stats["search"] = search.nodes
        if search.refuted:
            return None
        cover = search.cover
    candidates = fallback() if cover is None else [support(cover)]
    for f in candidates:
        if len(f) <= inst.k:
            cert = contains(inst.a_matrix, f, inst.terminals)
            if cert is not None:
                return f, cert
    if cover is not None:
        raise AssertionError("the search tree's cover failed its certificate")
    return None

