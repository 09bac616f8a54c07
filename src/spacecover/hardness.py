"""Reductions into Space Cover from multicolored clique and 3-dimensional matching."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .gf2 import Gf2Matrix
from .instances import PrimalInstance
from .multigraph import MultiGraph

__all__ = [
    "McInstance",
    "TdmInstance",
    "from_multicolored_clique",
    "from_3dm",
    "random_mc_instance",
    "random_3dm_instance",
    "mc_has_clique",
    "tdm_has_matching",
]


@dataclass
class McInstance:
    """Multicolored clique: graph with k color classes, no edges inside a class."""

    n: int
    edges: List[Tuple[int, int]]
    parts: List[List[int]]       # k disjoint vertex classes covering 0..n-1

    def __post_init__(self):
        part_of = {}
        for i, part in enumerate(self.parts):
            for v in part:
                part_of[v] = i
        for u, v in self.edges:
            if part_of[u] == part_of[v]:
                raise ValueError("edge inside a color class")
        self.part_of = part_of


@dataclass
class TdmInstance:
    """3-dimensional matching: triples over three q-element universes."""

    q: int
    triples: List[Tuple[int, int, int]]


def mc_has_clique(inst: McInstance) -> bool:
    """Brute-force check for a clique with one vertex per class."""
    eset = {frozenset(e) for e in inst.edges}
    for combo in itertools.product(*inst.parts):
        if all(frozenset((a, b)) in eset
               for a, b in itertools.combinations(combo, 2)):
            return True
    return False


def tdm_has_matching(inst: TdmInstance) -> bool:
    """Brute-force check for q pairwise disjoint triples."""
    def extend(used_x, used_y, used_z, start, left):
        if left == 0:
            return True
        for i in range(start, len(inst.triples)):
            x, y, z = inst.triples[i]
            if x in used_x or y in used_y or z in used_z:
                continue
            if extend(used_x | {x}, used_y | {y}, used_z | {z}, i + 1, left - 1):
                return True
        return False

    return extend(set(), set(), set(), 0, inst.q)


def from_multicolored_clique(inst: McInstance) -> PrimalInstance:
    """Primal instance whose answer is yes iff the clique instance is a yes.

    Vertices: a copy of the input graph, one hub per class adjacent to its
    class, a clique on the hubs, and isolated selector vertices x_i and y_ij.
    The budget is k + C(k,2): one cut edge per class plus one per class pair.
    """
    k = len(inst.parts)
    n0 = inst.n
    hubs = [n0 + i for i in range(k)]
    x_sel = [n0 + k + i for i in range(k)]
    y_index: Dict[Tuple[int, int], int] = {}
    nxt = n0 + 2 * k
    for i, j in itertools.combinations(range(k), 2):
        y_index[(i, j)] = nxt
        nxt += 1
    n = nxt
    g = MultiGraph(n)
    hub_edge: Dict[Tuple[int, int], int] = {}
    class_edges: Dict[int, List[int]] = {i: [] for i in range(k)}
    cross_edges: Dict[Tuple[int, int], List[int]] = {}
    for u, v in inst.edges:
        i, j = inst.part_of[u], inst.part_of[v]
        pair = (min(i, j), max(i, j))
        cross_edges.setdefault(pair, []).append(g.add_edge(u, v))
    for i in range(k):
        for z in inst.parts[i]:
            class_edges[i].append(g.add_edge(hubs[i], z))
    for i, j in itertools.combinations(range(k), 2):
        hub_edge[(i, j)] = g.add_edge(hubs[i], hubs[j])
    rows = [0] * n
    for i in range(k):
        for e in class_edges[i]:
            rows[x_sel[i]] |= 1 << e
    for (i, j), hub_e in hub_edge.items():
        rows[x_sel[i]] |= 1 << hub_e
        rows[x_sel[j]] |= 1 << hub_e
        y = y_index[(i, j)]
        for e in cross_edges.get((i, j), []):
            rows[y] |= 1 << e
        rows[y] |= 1 << hub_e
    p = Gf2Matrix(n, g.num_edges, rows)
    terminals = tuple(sorted(hub_edge.values()))
    budget = k + k * (k - 1) // 2
    return PrimalInstance(g, p, terminals, budget)


def from_3dm(inst: TdmInstance) -> PrimalInstance:
    """Primal instance (perturbation rank at most 2) encoding 3-dimensional matching.

    Element vertices x_h, y_i, z_j plus one vertex per triple; two extra loop
    edges carry the terminal obligations; budget 3q.
    """
    q = inst.q
    xs = list(range(q))
    ys = [q + i for i in range(q)]
    zs = [2 * q + i for i in range(q)]
    base = 3 * q
    n = base + len(inst.triples) + 2
    vert_a, vert_b = n - 2, n - 1
    g = MultiGraph(n)
    triple_edges: List[Tuple[int, int, int]] = []
    for r, (x, y, z) in enumerate(inst.triples):
        sv = base + r
        ex = g.add_edge(sv, xs[x])
        ey = g.add_edge(sv, ys[y])
        ez = g.add_edge(sv, zs[z])
        triple_edges.append((ex, ey, ez))
    loop_a = g.add_edge(vert_a, vert_a)
    loop_b = g.add_edge(vert_b, vert_b)
    rows = [0] * n
    # perturbation row u_x + u_y on the first loop, u_x + u_z on the second
    for i in range(q):
        rows[xs[i]] |= 1 << loop_a
        rows[ys[i]] |= 1 << loop_a
        rows[xs[i]] |= 1 << loop_b
        rows[zs[i]] |= 1 << loop_b
    p = Gf2Matrix(n, g.num_edges, rows)
    terminals = (loop_a, loop_b)
    return PrimalInstance(g, p, terminals, 3 * q)


def random_mc_instance(k: int, part_size: int, edge_prob: float,
                       rng: random.Random) -> McInstance:
    """Random multicolored-clique instance; intra-class edges are never generated."""
    if not 0 <= edge_prob <= 1:
        raise ValueError("edge probability %s is not in [0, 1]" % edge_prob)
    for name, value in (("part count", k), ("part size", part_size)):
        if value < 0:
            raise ValueError("%s %d is negative" % (name, value))
    parts = [list(range(i * part_size, (i + 1) * part_size)) for i in range(k)]
    n = k * part_size
    edges = []
    for i, j in itertools.combinations(range(k), 2):
        for u in parts[i]:
            for v in parts[j]:
                if rng.random() < edge_prob:
                    edges.append((u, v))
    return McInstance(n, edges, parts)


def random_3dm_instance(q: int, num_triples: int, rng: random.Random) -> TdmInstance:
    """Random triple system over three q-element universes."""
    if not 0 <= num_triples <= q ** 3:
        raise ValueError("%d distinct triples do not fit in universes of size q = %d"
                         % (num_triples, q))
    triples = set()
    while len(triples) < num_triples:
        triples.add((rng.randrange(q), rng.randrange(q), rng.randrange(q)))
    return TdmInstance(q, sorted(triples))
