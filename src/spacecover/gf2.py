"""GF(2) vectors as packed ints and bit-packed matrices: rank, span, nullspace, distinct rows/columns.

A vector is a plain int: bit i is coordinate i.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Gf2Matrix",
    "support",
    "to_string",
    "rank",
    "in_span",
    "distinct_columns",
    "distinct_rows",
    "nullspace",
    "spans_all",
]


def support(bits: int) -> frozenset:
    """The coordinates set in a packed vector."""
    return frozenset(i for i in range(bits.bit_length()) if (bits >> i) & 1)


def to_string(bits: int, n: int) -> str:
    """The n coordinates of a packed vector as 0/1 characters, coordinate 0 first."""
    # a sentinel bit above coordinate n - 1 keeps the leading zeros
    return bin(bits | (1 << n))[3:][::-1]


class Gf2Matrix:
    """A rows x cols matrix over GF(2), stored as one packed int per row."""

    __slots__ = ("rows", "cols", "row_bits")

    def __init__(self, rows: int, cols: int, row_bits: Optional[List[int]] = None):
        self.rows = rows
        self.cols = cols
        mask = (1 << cols) - 1
        if row_bits is None:
            self.row_bits = [0] * rows
        else:
            if len(row_bits) != rows:
                raise ValueError("row count mismatch")
            self.row_bits = [b & mask for b in row_bits]

    @classmethod
    def from_strings(cls, lines: List[str]) -> "Gf2Matrix":
        if not lines:
            return cls(0, 0)
        cols = len(lines[0])
        bits = []
        for line in lines:
            if len(line) != cols:
                raise ValueError("ragged rows")
            if set(line) - {"0", "1"}:
                raise ValueError("row %r has a character other than 0 and 1" % line)
            bits.append(int(line[::-1], 2) if cols else 0)
        return cls(len(lines), cols, bits)

    def columns(self) -> List[int]:
        """Every column packed (bit i = row i), from one pass over the set bits."""
        return _transposed(self.row_bits, self.cols)

    def column(self, j: int) -> int:
        """Column j packed (bit i = row i), read off bit j of each row."""
        if not 0 <= j < self.cols:
            raise IndexError(j)
        return sum((row >> j & 1) << i for i, row in enumerate(self.row_bits))

    def __xor__(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Gf2Matrix(self.rows, self.cols,
                         [a ^ b for a, b in zip(self.row_bits, other.row_bits)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Gf2Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.row_bits == other.row_bits)

    def to_strings(self) -> List[str]:
        return [to_string(bits, self.cols) for bits in self.row_bits]

    def __repr__(self) -> str:
        return "Gf2Matrix(%dx%d)" % (self.rows, self.cols)


def _transposed(words: List[int], size: int) -> List[int]:
    """The ``size`` packed words whose bit i is bit j of words[i], from one pass over the set bits."""
    out = [0] * size
    for i, word in enumerate(words):
        bit = 1 << i
        while word:
            low = word & -word
            out[low.bit_length() - 1] |= bit
            word ^= low
    return out


def _reduced(pivots: List[int], word: int) -> int:
    """word minus its part in the span of the echelon ``pivots``; 0 iff inside."""
    for p in pivots:
        if word & (p & -p):
            word ^= p
    return word


def _echelon(rows: Iterable[int]) -> List[int]:
    """Packed rows in echelon form: each pivot's lowest bit is in no later pivot."""
    pivots: List[int] = []
    for word in rows:
        word = _reduced(pivots, word)
        if word:
            pivots.append(word)
    return pivots


def spans_all(rows: Iterable[int], words: Iterable[int]) -> bool:
    """Whether every packed word lies in the GF(2) span of the packed rows."""
    pivots = _echelon(rows)
    return not any(_reduced(pivots, word) for word in words)


def rank(m: Gf2Matrix) -> int:
    """GF(2) rank of the matrix; the input is left unchanged."""
    return len(_echelon(m.row_bits))


def in_span(vectors: List[int], targets: Iterable[int]) -> Optional[List[frozenset]]:
    """Per target, a subset of indices of ``vectors`` whose XOR equals it; None if any is outside.

    One elimination serves every target. Deterministic: pivots are chosen
    greedily in input order, free choices resolved toward the empty
    combination, so a target's subset does not depend on the other targets.
    """
    # pairs of (vector bits, tag over input indices), kept in echelon form
    pivots: List[Tuple[int, int, int]] = []  # (pivot bit, vector bits, tag bits)
    for idx, word in enumerate(vectors):
        tag = 1 << idx
        for pb, pv, pt in pivots:
            if word & pb:
                word ^= pv
                tag ^= pt
        if word:
            pivots.append((word & -word, word, tag))
    combos = []
    for res in targets:
        tag = 0
        for pb, pv, pt in pivots:
            if res & pb:
                res ^= pv
                tag ^= pt
        if res:
            return None
        combos.append(support(tag))
    return combos


def _fully_reduced(rows: Iterable[int], mask: int) -> List[int]:
    """The rows' span in echelon form, fully reduced on the ``mask`` bits.

    Each row's pivot is its lowest bit in ``mask``, and no other row holds
    it; rows with no bit in ``mask`` are kept, rows of 0 are not.
    """
    pivots: List[Tuple[int, int]] = []  # (pivot, row); pivot 0 for a row with no bit in mask
    for word in rows:
        for bit, p in pivots:
            if word & bit:
                word ^= p
        low = word & mask
        low &= -low
        if low:
            for i, (bit, p) in enumerate(pivots):
                if p & low:
                    pivots[i] = (bit, p ^ word)
        if word:
            pivots.append((low, word))
    return [p for _bit, p in pivots]


def nullspace(m: Gf2Matrix) -> List[int]:
    """Basis of the right kernel {x : Mx = 0}, one vector per free column."""
    pivots = {(p & -p).bit_length() - 1: p for p in _fully_reduced(m.row_bits, -1)}
    # free column j, plus each pivot column whose fully reduced row holds j
    return [1 << j | sum(1 << pc for pc, p in pivots.items() if p >> j & 1)
            for j in range(m.cols) if j not in pivots]


def _distinct(vecs: List[int]) -> Tuple[List[int], Dict[int, int]]:
    classes: List[int] = []
    seen: Dict[int, int] = {}
    cls_of: Dict[int, int] = {}
    for i, v in enumerate(vecs):
        if v not in seen:
            seen[v] = len(classes)
            classes.append(v)
        cls_of[i] = seen[v]
    return classes, cls_of


def distinct_columns(m: Gf2Matrix) -> Tuple[List[int], Dict[int, int]]:
    """Distinct columns in first-occurrence order plus a column -> class map."""
    return _distinct(m.columns())


def distinct_rows(m: Gf2Matrix) -> Tuple[List[int], Dict[int, int]]:
    """Distinct rows in first-occurrence order plus a row -> class map."""
    return _distinct(m.row_bits)
