"""Pattern Cover: embed a labeled forest into a labeled multigraph with pinned vertices."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .derand import build_hash_family
from .multigraph import MultiGraph, spanning_forest

__all__ = ["HostIndex", "PatternCoverInstance", "Embedding", "solve", "colorful_solve"]

PATTERN_VERTEX_CAP = 16

# label -> host vertex -> [(neighbour, host edge)], sorted
Near = Dict[int, Dict[int, List[Tuple[int, int]]]]


class HostIndex:
    """A labeled host graph g and its neighbour index, which several instances may share.

    ``near`` lists every non-loop host edge under its label at both ends,
    sorted, so each neighbour's lowest edge id comes first; a forest edge
    never maps onto a loop. It is built on first use.
    """

    def __init__(self, g: MultiGraph, ell_g: Dict[int, int]):
        self.g = g
        self.ell_g = ell_g

    @cached_property
    def near(self) -> Near:
        near: Near = {}
        for eid, (x, y) in self.g.edges():
            if x != y:
                by_vertex = near.setdefault(self.ell_g[eid], {})
                by_vertex.setdefault(x, []).append((y, eid))
                by_vertex.setdefault(y, []).append((x, eid))
        for by_vertex in near.values():
            for pairs in by_vertex.values():
                pairs.sort()
        return near


@dataclass
class PatternCoverInstance:
    """Labeled host graph g, labeled forest h, pinned H-vertices u mapped by f.

    The host edges in ``excluded`` are not there: instances that differ
    only in them share one ``host`` index of (g, ell_g), which is built
    from them when not given.
    """

    g: MultiGraph
    ell_g: Dict[int, int]       # host edge id -> label
    h: MultiGraph               # forest
    ell_h: Dict[int, int]       # pattern edge id -> label
    u: FrozenSet[int] = frozenset()
    f: Dict[int, int] = field(default_factory=dict)
    excluded: FrozenSet[int] = frozenset()
    host: Optional[HostIndex] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.host is None:
            self.host = HostIndex(self.g, self.ell_g)
        elif self.host.g is not self.g or self.host.ell_g is not self.ell_g:
            raise ValueError("host index of another host graph")
        if set(self.f) != set(self.u):
            raise ValueError("pin map must be defined exactly on the pinned set")
        if len(set(self.f.values())) != len(self.f):
            raise ValueError("pin map must be injective")
        if len(spanning_forest(self.h)) != self.h.num_edges:
            raise ValueError("pattern graph must be a forest")

    @cached_property
    def _plan(self):
        """What the colorful DP needs that no coloring changes.

        roots: each tree as (root, its candidate host vertices).
        kids: pattern vertex -> [(child, edge id, host vertex -> [(child's
        candidate image, host edge)])], sorted, with the lowest edge id not
        excluded per endpoint pair and label. sizes[v, j]: vertices in v's
        subtree restricted to its children j, j+1, ... A pinned vertex is
        offered only its pin.
        """
        near, excluded = self.host.near, self.excluded

        def hosts(v: int, lab: int) -> Dict[int, List[Tuple[int, int]]]:
            by_vertex = near.get(lab, {})
            if v in self.f:
                pin, out = self.f[v], {}
                for x, eid in by_vertex.get(pin, ()):
                    if x not in out and eid not in excluded:
                        out[x] = [(pin, eid)]
                return out
            out = {}
            for x, pairs in by_vertex.items():
                kept, last = [], None
                for y, eid in pairs:
                    if y != last and eid not in excluded:
                        kept.append((y, eid))
                        last = y
                out[x] = kept
            return out

        adj = self.h.adjacency()
        roots: List[Tuple[int, Sequence[int]]] = []
        kids: Dict[int, List[Tuple[int, int, Dict[int, List[Tuple[int, int]]]]]] = {}
        order: List[int] = []
        for root in range(self.h.n):
            if root in kids:
                continue
            roots.append((root, [self.f[root]] if root in self.f else range(self.g.n)))
            kids[root] = []
            stack = [root]
            while stack:
                v = stack.pop()
                order.append(v)
                for w, he in sorted(adj[v]):
                    if w not in kids:
                        kids[w] = []
                        kids[v].append((w, he, hosts(w, self.ell_h[he])))
                        stack.append(w)
        sizes: Dict[Tuple[int, int], int] = {}
        for v in reversed(order):
            size = 1
            sizes[v, len(kids[v])] = size
            for j in range(len(kids[v]) - 1, -1, -1):
                size += sizes[kids[v][j][0], 0]
                sizes[v, j] = size
        return roots, kids, sizes


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
            if not inst.g.has_edge(ge) or ge in inst.excluded:
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


def colorful_solve(inst: PatternCoverInstance, c: Sequence[int]) -> Optional[Embedding]:
    """Embedding whose image is rainbow-colored under c, or None if none exists.

    DP over (pattern vertex, host vertex, child index, color subset),
    assembled across trees by a second table over color subsets. Each entry
    keeps the first choice that succeeds, and the embedding is read back from
    those choices.
    """
    k = inst.h.n
    _check_pattern_size(k)
    if k == 0:
        return Embedding({}, {})
    if inst.g.n == 0:
        return None
    roots, kids, sizes = inst._plan

    # An entry is the tuple of choices that succeeded, () when nothing is left
    # to choose, and None when no choice succeeds. Both tables are plain dicts:
    # a cache decorator per coloring costs more than the lookups it saves.
    tables: Dict[Tuple[int, int, int, int], Optional[Tuple[int, ...]]] = {}
    forests: Dict[Tuple[int, int], Optional[Tuple[int, ...]]] = {}

    def table(v: int, j: int, x: int, cmask: int) -> Optional[Tuple[int, ...]]:
        """(colors of child j's subtree, image of child j, host edge) for an embedding
        of v with its children j, j+1, ... that puts v at x and uses exactly cmask.
        Callers pass only colour sets of size sizes[v, j]."""
        cx = 1 << c[x]
        if not cmask & cx:
            return None
        if j == len(kids[v]):
            return ()
        child, _he, hosts = kids[v][j]
        cands = hosts.get(x)
        if not cands:
            return None
        key = (v, j, x, cmask)
        if key in tables:
            return tables[key]
        rest = cmask & ~cx
        need = sizes[child, 0]
        # split colors: child's subtree takes sub (containing c(y)), the rest stays
        sub = rest
        while sub:
            if sub.bit_count() == need:
                for y, eid in cands:
                    if (sub >> c[y]) & 1 and table(child, 0, y, sub) is not None \
                            and table(v, j + 1, x, cmask & ~sub) is not None:
                        tables[key] = entry = (sub, y, eid)
                        return entry
            sub = (sub - 1) & rest
        tables[key] = None
        return None

    def forest(i: int, cmask: int) -> Optional[Tuple[int, ...]]:
        """(colors of tree i, image of its root) for an embedding of trees 0..i
        that uses exactly cmask."""
        if i < 0:
            return () if cmask == 0 else None
        key = (i, cmask)
        if key in forests:
            return forests[key]
        root, root_hosts = roots[i]
        need = sizes[root, 0]
        sub = cmask
        while sub:
            if sub.bit_count() == need:
                for x in root_hosts:
                    if (sub >> c[x]) & 1 and table(root, 0, x, sub) is not None \
                            and forest(i - 1, cmask & ~sub) is not None:
                        forests[key] = entry = (sub, x)
                        return entry
            sub = (sub - 1) & cmask
        forests[key] = None
        return None

    def read_tree(v: int, x: int, cmask: int) -> None:
        vmap[v] = x
        for j, (child, he, _hosts) in enumerate(kids[v]):
            sub, y, eid = table(v, j, x, cmask)
            emap[he] = eid
            read_tree(child, y, sub)
            cmask &= ~sub

    cmask = (1 << k) - 1
    if forest(len(roots) - 1, cmask) is None:
        return None
    vmap: Dict[int, int] = {}
    emap: Dict[int, int] = {}
    for i in range(len(roots) - 1, -1, -1):
        sub, x = forest(i, cmask)
        read_tree(roots[i][0], x, sub)
        cmask &= ~sub
    emb = Embedding(vmap, emap)
    if not emb.verify(inst):
        raise AssertionError("colorful DP produced an invalid embedding")
    return emb


@cache
def _hash_family_cached(n: int, k: int):
    return build_hash_family(n, k)


def solve(inst: PatternCoverInstance) -> Optional[Embedding]:
    """Find an embedding, or None when none exists; color coding over the free pattern vertices.

    Walking the hosts in order, each pin image takes the next reserved color
    k - |U|, k - |U| + 1, ..., and the other g.n - |U| hosts take the colors
    0..k - |U| - 1 of one function of a (g.n - |U|, k - |U|)-perfect hash
    family (a single all-zero coloring when every pattern vertex is pinned).
    A rainbow image uses each reserved color once, on its pin, so some
    coloring admits every embedding.
    """
    k = inst.h.n
    _check_pattern_size(k)
    if k == 0:
        return Embedding({}, {})
    pins = set(inst.f.values())
    free, rest = k - len(pins), inst.g.n - len(pins)
    if free > rest:
        return None
    family = _hash_family_cached(rest, free).functions if free else [(0,) * rest]
    for phi in family:
        colors = iter(phi)
        reserved = iter(range(free, k))
        coloring = [next(reserved) if x in pins else next(colors) for x in range(inst.g.n)]
        emb = colorful_solve(inst, coloring)
        if emb is not None:
            return emb
    return None
