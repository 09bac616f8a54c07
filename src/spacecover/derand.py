"""Deterministic coloring families: (n,k)-perfect hash families and (n,k,p)-universal sets."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Tuple

__all__ = [
    "HashFamily",
    "UniversalSet",
    "build_hash_family",
    "build_universal_set",
    "verify_family",
    "verify_universal",
]

# Demand spaces larger than this are refused: the greedies keep state per demand
# (the universal-set masks about 2nk bits each).
DEMAND_CAP = 2_000_000


@dataclass
class HashFamily:
    """Functions [0,n) -> [0,k) such that every k-subset gets an injective one."""

    n: int
    k: int
    functions: List[Tuple[int, ...]]


@dataclass
class UniversalSet:
    """Functions [0,n) -> {0,1} realizing every exactly-p-ones pattern on every k-subset."""

    n: int
    k: int
    p: int
    functions: List[Tuple[int, ...]]


def _covers_hash(func: Tuple[int, ...], subset: Tuple[int, ...]) -> bool:
    seen = 0
    for i in subset:
        b = 1 << func[i]
        if seen & b:
            return False
        seen |= b
    return True


def _check_demands(count: int, what: str) -> None:
    if count > DEMAND_CAP:
        raise ValueError("beyond supported range: %s demand count %d exceeds DEMAND_CAP = %d"
                         % (what, count, DEMAND_CAP))


def build_hash_family(n: int, k: int) -> HashFamily:
    """Greedy conditional-expectation construction of an (n,k)-perfect hash family.

    Refuses with ValueError when the demand space (all k-subsets) exceeds
    DEMAND_CAP.
    """
    if not 0 < k <= n:
        raise ValueError("need 0 < k <= n")
    if k == 1:
        return HashFamily(n, k, [tuple([0] * n)])
    _check_demands(math.comb(n, k), "(%d,%d)-perfect hash family" % (n, k))
    demands = list(itertools.combinations(range(n), k))
    # falling-factorial probability table: prob[u][r] that r unassigned members
    # receive distinct colors from the k-u unused ones, under uniform choices
    prob = [[1.0] * (k + 1) for _ in range(k + 1)]
    for u in range(k + 1):
        for r in range(1, k + 1):
            prob[u][r] = prob[u][r - 1] * max(k - u - (r - 1), 0) / k
    functions: List[Tuple[int, ...]] = []
    uncovered = set(range(len(demands)))
    by_pos: List[List[int]] = [[] for _ in range(n)]
    for di, s in enumerate(demands):
        for i in s:
            by_pos[i].append(di)
    remaining_after = {}
    for di, s in enumerate(demands):
        for pos_idx, i in enumerate(s):
            remaining_after[(di, i)] = len(s) - pos_idx - 1
    while uncovered:
        used_mask = [0] * len(demands)
        used_cnt = [0] * len(demands)
        conflict = [False] * len(demands)
        func = []
        for i in range(n):
            live = [di for di in by_pos[i] if di in uncovered and not conflict[di]]
            best_c, best_score = 0, -1.0
            for c in range(k):
                score = 0.0
                bit = 1 << c
                for di in live:
                    if used_mask[di] & bit:
                        continue
                    score += prob[used_cnt[di] + 1][remaining_after[(di, i)]]
                if score > best_score + 1e-15:
                    best_score, best_c = score, c
            func.append(best_c)
            bit = 1 << best_c
            for di in live:
                if used_mask[di] & bit:
                    conflict[di] = True
                else:
                    used_mask[di] |= bit
                    used_cnt[di] += 1
        func_t = tuple(func)
        newly = {di for di in uncovered if _covers_hash(func_t, demands[di])}
        if not newly:
            raise RuntimeError("greedy hash family construction stalled")
        uncovered -= newly
        functions.append(func_t)
    return HashFamily(n, k, functions)


def verify_family(fam: HashFamily) -> bool:
    """Check the defining property on every k-subset."""
    for s in itertools.combinations(range(fam.n), fam.k):
        if not any(_covers_hash(f, s) for f in fam.functions):
            return False
    return True


def _universal_demands(n: int, k: int, p: int):
    for subset in itertools.combinations(range(n), k):
        for ones in itertools.combinations(range(k), p):
            pattern = [0] * k
            for j in ones:
                pattern[j] = 1
            yield subset, tuple(pattern)


def _table(values) -> bytes:
    """A bytes.translate table sending byte s to values[s], and every later byte to 0."""
    return bytes(values) + bytes(256 - len(values))


def _position_symbols(n: int, k: int) -> List[List[bytes]]:
    """Position symbols of every vertex on the r-subsets of a range, r < k.

    sym[r][d], 1 <= d <= m_r = n-k+r, has one byte per r-subset of
    range(m_r), in lexicographic order: 1 + the position of vertex m_r - d
    in it, or 0.  For r = 0 every entry is the one empty subset, symbol 0.
    The last C(m, r) subsets of range(m_r) are those of range(m_r - m, m_r),
    so the symbols of vertex v on the r-subsets of range(m), m <= m_r, are
    the last C(m, r) bytes of sym[r][m - v].  A block of k-subsets of range(n)
    never needs r-subsets of a range longer than m_r.
    """
    sym = [[b"\0"] * (n - k + 1)]
    for r in range(1, k):
        m_r = n - k + r
        shift = _table([0] + list(range(2, r + 1)))
        row = [b""]
        for d in range(1, m_r + 1):
            # subsets starting with c < m_r - d hold the vertex in their tail
            # (r-1 subsets of range(c+1, m_r)), one position later; then the
            # subsets starting with it; then the rest
            tail = sym[r - 1][d].translate(shift) if d < m_r else b""
            row.append(b"".join([tail[len(tail) - math.comb(m_r - 1 - c, r - 1):]
                                 for c in range(m_r - d)]
                                + [b"\1" * math.comb(d - 1, r - 1), bytes(math.comb(d - 1, r))]))
        sym.append(row)
    return sym


def _repeat_each(s: bytes, r: int) -> bytes:
    """s with each byte repeated r times in place."""
    if r == 1:
        return s
    buf = bytearray(len(s) * r)
    buf[::r] = s
    # one byte per r-byte run times 0x0101..01: each run filled, no carries
    return (int.from_bytes(buf, "little")
            * int.from_bytes(b"\1" * r, "little")).to_bytes(len(buf), "little")


def _pack_words(sym: bytes, tables: List[bytes], wbits: int) -> bytes:
    """The word of every symbol of sym, wbits bits each, packed little-endian.

    Below 8 bits, tables[u] puts the word of the u-th symbol of every byte in
    place; from 8 bits up, tables[t] gives byte t of the word.
    """
    if wbits < 8:
        per_byte = len(tables)
        acc = 0
        for u, table in enumerate(tables):
            acc |= int.from_bytes(sym[u::per_byte].translate(table), "little")
        return acc.to_bytes(len(sym) // per_byte, "little")
    buf = bytearray(len(sym) * len(tables))
    for t, table in enumerate(tables):
        buf[t::len(tables)] = sym.translate(table)
    return buf


def build_universal_set(n: int, k: int, p: int) -> UniversalSet:
    """Greedy conditional-expectation construction of an (n,k,p)-universal set.

    A demand is a k-subset with a pattern of exactly p ones.  Each function
    is chosen bit by bit: bit i is 1 iff the demands still realizable that
    contain i want 1 at i by a larger weight, weight 2^pos for i at position
    pos of the subset (the chance, scaled by 2^(k-1), that uniform bits on
    the later members realize the demand).  Functions are added until every
    demand is realized.

    Scoring bit i only reads the demands whose subset contains i, so each
    vertex j keeps its own layout of those demands: one block per position
    pos of j, its subsets in lexicographic order, one word of pattern bits
    per subset.  A block holds the live demands as an int, and for every
    vertex v in its subsets and bit b a positive mask of the demands that
    f(v) = b leaves realizable.  A choice then costs one AND per block that
    holds v, and a score two popcounts per block of i, where a single bitset
    over all demands would pay for every demand at every vertex.  The masks
    are built a block at a time from per-subset position symbols with
    bytes.translate.

    Refuses with ValueError when the demand space exceeds DEMAND_CAP or k
    exceeds 255 (symbols are bytes).
    """
    if not 0 <= p <= k <= n:
        raise ValueError("need 0 <= p <= k <= n")
    patterns = list(itertools.combinations(range(k), p))
    width = len(patterns)
    _check_demands(math.comb(n, k) * width, "(%d,%d,%d)-universal set" % (n, k, p))
    if k > 255:
        raise ValueError("beyond supported range: (%d,%d,%d)-universal set needs k <= 255"
                         % (n, k, p))
    if k == 0:
        return UniversalSet(n, k, p, [(0,) * n])
    # Pattern j is bit j of a word; words round up to a power of two below a
    # byte and to whole bytes above it.  Symbol 0 marks a vertex outside the
    # subset, q + 1 the vertex at position q.
    full = (1 << width) - 1
    ones = [sum(1 << j for j, pat in enumerate(patterns) if pos in pat) for pos in range(k)]
    words = ([full] + [full ^ w for w in ones], [full] + ones)
    wbits = 1 << (width - 1).bit_length() if width <= 8 else -(-width // 8) * 8
    per_byte = max(1, 8 // wbits)
    if wbits < 8:
        tables = [[_table([w << (u * wbits) for w in ws]) for u in range(per_byte)] for ws in words]
    else:
        tables = [[_table([(w >> (8 * t)) & 255 for w in ws]) for t in range(wbits // 8)]
                  for ws in words]
    # a bit that refuses no demand (p = 0 or p = k) needs no masks; under
    # p = k every pattern wants 1
    refuses = [any(w != full for w in ws) for ws in words]
    sym = _position_symbols(n, k)

    alive = [0] * (n * k)                    # block j*k + pos
    scored: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]   # (pos, block, wants 1)
    keep: List[Tuple[list, list]] = [([], []) for _ in range(n)]       # [v][b]: (block, mask)
    for j in range(n):
        for pos in range(k):
            # subsets (A, j, B): A from range(j), B from range(j+1, n), A major
            na, nb = math.comb(j, pos), math.comb(n - 1 - j, k - 1 - pos)
            size = na * nb
            if not size:
                continue
            x = j * k + pos
            below = range(j) if pos else range(0)
            above = range(j + 1, n) if pos < k - 1 else range(0)
            # one symbol string per vertex that can sit in these subsets: a
            # vertex below j keeps its symbol on A over the nb subsets of each
            # A, a vertex above j repeats its symbol on B (moved past pos) for
            # each of the na values of A
            low = memoryview(_repeat_each(b"".join(sym[pos][j - v][-na:] for v in below), nb))
            shift = _table([0] + list(range(pos + 2, k + 1)))
            parts = ([low[t * size:(t + 1) * size] for t in range(len(below))]
                     + [bytes([pos + 1]) * size]
                     + [sym[k - 1 - pos][n - v][-nb:].translate(shift) * na for v in above])
            # each part starts on a byte; the padding bits of alive stay 0,
            # so no mask needs them
            pad = bytes(-size % per_byte)
            symbols = pad.join(parts + [b""])
            seg = len(symbols) // len(parts) * wbits // 8
            verts = list(below) + [j] + list(above)
            alive[x] = full * ((1 << (size * wbits)) - 1) // ((1 << wbits) - 1)
            wants1 = alive[x]
            for b in (0, 1):
                if not refuses[b]:
                    continue
                packed = _pack_words(symbols, tables[b], wbits)
                for t, v in enumerate(verts):
                    mask = int.from_bytes(packed[t * seg:(t + 1) * seg], "little")
                    keep[v][b].append((x, mask))
                    if b and v == j:
                        wants1 = mask
            scored[j].append((pos, x, wants1))
    del sym                                  # the greedy reads only the masks

    functions: List[Tuple[int, ...]] = []
    while any(alive):
        cur = alive[:]
        func = []
        for i in range(n):
            score0 = score1 = 0
            for pos, x, wants1 in scored[i]:
                ok = cur[x]
                c1 = (ok & wants1).bit_count()
                score1 += c1 << pos
                score0 += (ok.bit_count() - c1) << pos
            b = 1 if score1 > score0 else 0
            func.append(b)
            for x, mask in keep[i][b]:
                cur[x] &= mask
        if not any(cur):
            raise RuntimeError("greedy universal set construction stalled")
        alive = [a ^ c for a, c in zip(alive, cur)]
        functions.append(tuple(func))
    return UniversalSet(n, k, p, functions)


def _realizes(func: Tuple[int, ...], demand) -> bool:
    subset, pattern = demand
    return all(func[i] == b for i, b in zip(subset, pattern))


def verify_universal(us: UniversalSet) -> bool:
    """Check the defining property on every (k-subset, pattern) demand."""
    for d in _universal_demands(us.n, us.k, us.p):
        if not any(_realizes(f, d) for f in us.functions):
            return False
    return True
