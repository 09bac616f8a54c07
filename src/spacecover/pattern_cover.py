"""Pattern Cover: embed a labeled forest into a labeled multigraph with pinned vertices."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .derand import build_hash_family
from .multigraph import MultiGraph, spanning_forest

__all__ = ["PatternCoverInstance", "Embedding", "solve", "colorful_solve"]

PATTERN_VERTEX_CAP = 16


@dataclass
class PatternCoverInstance:
    """Labeled host graph g, labeled forest h, pinned H-vertices u mapped by f."""

    g: MultiGraph
    ell_g: Dict[int, int]       # host edge id -> label
    h: MultiGraph               # forest
    ell_h: Dict[int, int]       # pattern edge id -> label
    u: FrozenSet[int] = frozenset()
    f: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if set(self.f) != set(self.u):
            raise ValueError("pin map must be defined exactly on the pinned set")
        if len(set(self.f.values())) != len(self.f):
            raise ValueError("pin map must be injective")
        if len(spanning_forest(self.h)) != self.h.num_edges:
            raise ValueError("pattern graph must be a forest")


@dataclass
class Embedding:
    """An injective label-preserving homomorphism of the pattern into the host."""

    vertex_map: Dict[int, int]
    edge_map: Dict[int, int]

    def verify(self, inst: PatternCoverInstance) -> bool:
        vm, em = self.vertex_map, self.edge_map
        if set(vm) != set(range(inst.h.n)):
            return False
        if len(set(vm.values())) != len(vm):
            return False
        for v in inst.u:
            if vm[v] != inst.f[v]:
                return False
        if set(em) != set(inst.h.edge_ids()):
            return False
        if len(set(em.values())) != len(em):
            return False
        for he, ge in em.items():
            a, b = inst.h.endpoints(he)
            if not inst.g.has_edge(ge):
                return False
            x, y = inst.g.endpoints(ge)
            if {vm[a], vm[b]} != {x, y}:
                return False
            if inst.ell_h[he] != inst.ell_g[ge]:
                return False
        return True


def _check_pattern_size(k: int) -> None:
    if k > PATTERN_VERTEX_CAP:
        raise ValueError("beyond supported range: pattern vertex count %d exceeds "
                         "PATTERN_VERTEX_CAP = %d" % (k, PATTERN_VERTEX_CAP))


def _rooted_forest(h: MultiGraph) -> List[Tuple[int, Dict[int, List[Tuple[int, int]]]]]:
    """Roots and child lists of each tree: root, vertex -> [(child, edge id)]."""
    adj = h.adjacency()
    seen = set()
    trees = []
    for root in range(h.n):
        if root in seen:
            continue
        children: Dict[int, List[Tuple[int, int]]] = {}
        seen.add(root)
        stack = [(root, -1)]
        while stack:
            v, parent_eid = stack.pop()
            kids = []
            for w, eid in sorted(adj[v]):
                if eid == parent_eid or w in seen:
                    continue
                seen.add(w)
                kids.append((w, eid))
                stack.append((w, eid))
            children[v] = kids
        trees.append((root, children))
    return trees


def colorful_solve(inst: PatternCoverInstance, c: Sequence[int]) -> Optional[Embedding]:
    """Embedding whose image is rainbow-colored under c, or None if none exists.

    DP over (tree, pattern vertex, host vertex, child index, color subset),
    assembled across trees by a second table over color subsets.
    """
    k = inst.h.n
    _check_pattern_size(k)
    if k == 0:
        return Embedding({}, {})
    if inst.g.n == 0:
        return None
    trees = _rooted_forest(inst.h)

    # representative host edge per (vertex, label) -> list of (neighbor, edge id)
    rep: Dict[Tuple[int, int, int], int] = {}
    for eid, (x, y) in inst.g.edges():
        if x == y:
            continue  # a forest edge never maps onto a loop
        lab = inst.ell_g[eid]
        key = (min(x, y), max(x, y), lab)
        if key not in rep or eid < rep[key]:
            rep[key] = eid
    nbr: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for (x, y, lab), eid in rep.items():
        nbr.setdefault((x, lab), []).append((y, eid))
        nbr.setdefault((y, lab), []).append((x, eid))
    for key in nbr:
        nbr[key].sort()

    # sizes[v, j]: vertices in v's subtree restricted to its children j, j+1, ...
    sizes: Dict[Tuple[int, int], int] = {}

    def calc_size(children: Dict[int, List[Tuple[int, int]]], v: int) -> int:
        kids = children[v]
        size = 1
        sizes[v, len(kids)] = size
        for j in range(len(kids) - 1, -1, -1):
            size += calc_size(children, kids[j][0])
            sizes[v, j] = size
        return size

    for root, children in trees:
        calc_size(children, root)

    memo: Dict[Tuple[int, int, int, int], bool] = {}

    def table(children, v: int, j: int, x: int, cmask: int) -> bool:
        key = (v, j, x, cmask)
        if key in memo:
            return memo[key]
        res = _table_calc(children, v, j, x, cmask)
        memo[key] = res
        return res

    def _table_calc(children, v: int, j: int, x: int, cmask: int) -> bool:
        if v in inst.u and inst.f[v] != x:
            return False
        cx = 1 << c[x]
        if not (cmask & cx):
            return False
        if cmask.bit_count() != sizes[v, j]:
            return False
        kids = children[v]
        if j == len(kids):
            return cmask == cx
        u_child, he = kids[j]
        lab = inst.ell_h[he]
        cands = nbr.get((x, lab), [])
        if u_child in inst.u:
            cands = [(y, eid) for y, eid in cands if y == inst.f[u_child]]
        if not cands:
            return False
        rest = cmask & ~cx
        # split colors: child's subtree takes sub (containing c(y)), the rest stays
        sub = rest
        while True:
            if sub:
                for y, _eid in cands:
                    if (sub >> c[y]) & 1 and table(children, u_child, 0, y, sub) \
                            and table(children, v, j + 1, x, cmask & ~sub):
                        return True
            if sub == 0:
                break
            sub = (sub - 1) & rest
        return False

    def rebuild(children, v: int, j: int, x: int, cmask: int,
                vmap: Dict[int, int], emap: Dict[int, int]) -> None:
        vmap[v] = x
        kids = children[v]
        if j == len(kids):
            return
        u_child, he = kids[j]
        lab = inst.ell_h[he]
        cands = nbr.get((x, lab), [])
        if u_child in inst.u:
            cands = [(y, eid) for y, eid in cands if y == inst.f[u_child]]
        cx = 1 << c[x]
        rest = cmask & ~cx
        sub = rest
        while True:
            if sub:
                for y, eid in cands:
                    if (sub >> c[y]) & 1 and table(children, u_child, 0, y, sub) \
                            and table(children, v, j + 1, x, cmask & ~sub):
                        emap[he] = eid
                        rebuild(children, u_child, 0, y, sub, vmap, emap)
                        rebuild(children, v, j + 1, x, cmask & ~sub, vmap, emap)
                        return
            if sub == 0:
                break
            sub = (sub - 1) & rest
        raise AssertionError("reconstruction diverged from the table")

    # assemble across trees
    full = (1 << k) - 1
    n_trees = len(trees)
    nmemo: Dict[Tuple[int, int], bool] = {}

    def ntable(i: int, cmask: int) -> bool:
        if i < 0:
            return cmask == 0
        key = (i, cmask)
        if key in nmemo:
            return nmemo[key]
        root, children = trees[i]
        res = False
        sub = cmask
        while True:
            if sub:
                for x in range(inst.g.n):
                    if (sub >> c[x]) & 1 and table(children, root, 0, x, sub) \
                            and ntable(i - 1, cmask & ~sub):
                        res = True
                        break
            if res or sub == 0:
                break
            sub = (sub - 1) & cmask
        nmemo[key] = res
        return res

    if not ntable(n_trees - 1, full):
        return None
    vmap: Dict[int, int] = {}
    emap: Dict[int, int] = {}
    cmask = full
    for i in range(n_trees - 1, -1, -1):
        root, children = trees[i]
        done = False
        sub = cmask
        while not done:
            if sub:
                for x in range(inst.g.n):
                    if (sub >> c[x]) & 1 and table(children, root, 0, x, sub) \
                            and ntable(i - 1, cmask & ~sub):
                        rebuild(children, root, 0, x, sub, vmap, emap)
                        cmask &= ~sub
                        done = True
                        break
            if done:
                break
            if sub == 0:
                raise AssertionError("assembly reconstruction diverged")
            sub = (sub - 1) & cmask
    emb = Embedding(vmap, emap)
    if not emb.verify(inst):
        raise AssertionError("colorful DP produced an invalid embedding")
    return emb


@lru_cache(maxsize=None)
def _hash_family_cached(n: int, k: int):
    return build_hash_family(n, k)


def solve(inst: PatternCoverInstance) -> Optional[Embedding]:
    """Find an embedding, or None when none exists; color coding over a perfect hash family."""
    k = inst.h.n
    _check_pattern_size(k)
    if k == 0:
        return Embedding({}, {})
    if k > inst.g.n:
        return None
    for coloring in _hash_family_cached(inst.g.n, k).functions:
        emb = colorful_solve(inst, coloring)
        if emb is not None:
            return emb
    return None
