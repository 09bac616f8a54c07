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

# Demand spaces larger than this are refused: both greedies keep state per demand.
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


def build_universal_set(n: int, k: int, p: int) -> UniversalSet:
    """Greedy conditional-expectation construction of an (n,k,p)-universal set.

    A demand is a k-subset with a pattern of exactly p ones.  Each function
    is chosen bit by bit: bit i is 1 iff the demands still realizable that
    contain i want 1 at i by a larger weight, weight 2^pos for i at position
    pos of the subset (the chance, scaled by 2^(k-1), that uniform bits on
    the later members realize the demand).  Functions are added until every
    demand is realized.

    Refuses with ValueError when the demand space exceeds DEMAND_CAP.
    """
    if not 0 <= p <= k <= n:
        raise ValueError("need 0 <= p <= k <= n")
    _check_demands(math.comb(n, k) * math.comb(k, p), "(%d,%d,%d)-universal set" % (n, k, p))
    demands = list(_universal_demands(n, k, p))
    functions: List[Tuple[int, ...]] = []
    while demands:
        ok = demands
        func = []
        for i in range(n):
            score = [0, 0]
            for subset, pattern in ok:
                if i in subset:
                    pos = subset.index(i)
                    score[pattern[pos]] += 1 << pos
            b = 1 if score[1] > score[0] else 0
            func.append(b)
            ok = [(subset, pattern) for subset, pattern in ok
                  if i not in subset or pattern[subset.index(i)] == b]
        if not ok:
            raise RuntimeError("greedy universal set construction stalled")
        func_t = tuple(func)
        demands = [d for d in demands if not _realizes(func_t, d)]
        functions.append(func_t)
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
