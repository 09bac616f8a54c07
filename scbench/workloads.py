"""Seeded corpora of SCPM instances, one generator per benchmark workload.

Attempt ``a`` at instance ``i`` of a corpus is drawn from its own
``random.Random`` seeded by ``"<workload>/<seed>/<i>/<a>"``.  Draws rotate
through a fixed list of cells (parameter combinations) and sweep the vertex
count through each cell's range in a low-discrepancy order, so every corpus
of a given size holds the same mix of sizes, spread over the whole range
even when a corpus has only a few rounds of cells.  A random cell also fixes the row's t and its verdict:
``select`` (untimed) keeps, for each row, the first attempt whose t and
oracle verdict are the cell's, and ``build_corpus`` draws just those
attempts.  So a corpus is a pure function of (workload, seed, size), a longer
corpus extends a shorter one, and only graphs, perturbations and terminals
vary with the seed, never the yes share.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from spacecover import dual_solver, oracle, pgm_solver
from spacecover.fileio import serialize_instance
from spacecover.gf2 import Gf2Matrix
from spacecover.instances import DualInstance, SpaceCoverInstance, random_instance
from spacecover.multigraph import MultiGraph

# Sizes of the criterion-3/4 style instances: with --q-override 2 the small
# case threshold is s = 2**4 = 16, so hosts need at least 17 vertices.
RECURSION_ARGS = ("--q-override", "2", "--p-override", "2")
HOST_N = 17

# Attempts per row before select() gives up on a cell.
MAX_ATTEMPTS = 200

# Round j of a cell takes n at the fraction (j * GOLDEN) mod 1 of its range.
GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class Row:
    """One corpus instance: its SCPM text and the draw that produced it."""

    index: int
    text: str
    mode: str
    n: int
    m: int
    k: int
    terminals: int
    cell: str


@dataclass(frozen=True)
class Draw:
    """One attempt at a row, with what select() requires of it (None: anything)."""

    inst: SpaceCoverInstance
    cell: str
    types: Optional[int] = None
    verdict: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    name: str
    rate: float                 # instances solved per second of --seconds, full passes together
    passes: int                 # fresh-process passes; an instance is charged its median time
    limit_s: float              # per-instance time limit
    solve_args: Tuple[str, ...]
    draw: Callable[[str, int, int, int], Draw]   # (workload, seed, index, attempt)
    light_passes: int = 0       # further passes that skip the host queries (see in_light_pass)


def corpus_size(wl: Workload, seconds: float) -> int:
    return max(1, int(round(wl.rate * seconds / wl.passes)))


def in_light_pass(cell: str) -> bool:
    """Whether a light pass decides a row of this cell: all but the host queries."""
    return not cell.startswith("host")


def row_types(inst: SpaceCoverInstance) -> int:
    """t of an instance: distinct P-columns (primal) or distinct P-rows (dual)."""
    if inst.mode == "primal":
        return pgm_solver.edge_types(inst.p)[0]
    return dual_solver.vertex_types(inst.p)[0]


def oracle_verdict(inst: SpaceCoverInstance) -> str:
    solve = (oracle.solve_primal_bruteforce if inst.mode == "primal"
             else oracle.solve_dual_bruteforce)
    return "no" if solve(inst) is None else "yes"


def _accepted(d: Draw) -> bool:
    if d.types is not None and row_types(d.inst) != d.types:
        return False
    return d.verdict is None or oracle_verdict(d.inst) == d.verdict


def select(wl: Workload, seed: int, size: int) -> List[int]:
    """The attempt number of each row's first draw that meets its cell (untimed)."""
    attempts = []
    for i in range(size):
        for attempt in range(MAX_ATTEMPTS):
            if _accepted(wl.draw(wl.name, seed, i, attempt)):
                attempts.append(attempt)
                break
        else:
            raise RuntimeError("%s row %d: no draw in %d meets cell %s"
                               % (wl.name, i, MAX_ATTEMPTS, wl.draw(wl.name, seed, i, 0).cell))
    return attempts


def build_corpus(wl: Workload, seed: int, attempts: Sequence[int]) -> List[Row]:
    rows = []
    for i, attempt in enumerate(attempts):
        d = wl.draw(wl.name, seed, i, attempt)
        rows.append(Row(index=i, text=serialize_instance(d.inst), mode=d.inst.mode,
                        n=d.inst.graph.n, m=d.inst.graph.num_edges, k=d.inst.k,
                        terminals=len(d.inst.terminals), cell=d.cell))
    return rows


def corpus_digest(rows: Sequence[Row]) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(row.text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _rng(workload: str, seed: int, i: int, attempt: int) -> random.Random:
    return random.Random("%s/%d/%d/%d" % (workload, seed, i, attempt))


# ---------------------------------------------------------------------------
# random corpora: cells are (n range, r, |T|, k, verdict)

Cell = Tuple[Tuple[int, int], int, int, int, str]


def _random_draw(mode: str, cells: Sequence[Cell]) -> Callable[[str, int, int, int], Draw]:
    def draw(workload: str, seed: int, i: int, attempt: int) -> Draw:
        round_, pos = divmod(i, len(cells))
        (n_lo, n_hi), r, num_t, k, verdict = cells[pos]
        n = n_lo + int(round_ * GOLDEN % 1.0 * (n_hi - n_lo + 1))
        rng = _rng(workload, seed, i, attempt)
        m = rng.randint((9 * n + 4) // 5, 2 * n)   # m in [1.8n, 2n]
        inst = random_instance(mode, n, m, r, num_t, k, rng)
        # A rank-r perturbation has at most 2^r types; requiring 2^r fixes
        # t, which sets the number of parity guesses, per cell.
        return Draw(inst, "r%d T%d k%d %s" % (r, num_t, k, verdict), 1 << r, verdict)
    return draw


# Three yes cells and six no cells; seven have k = 3.  A yes row stops at
# its first embedding, a no row searches everything, so the verdict is part
# of the cell: the yes share does not move with the seed.  The first two yes
# cells mostly find an embedding within milliseconds, so the median verdict
# falls among the no rows at k = 3.
PRIMAL_CELLS: List[Cell] = [
    ((8, 12), 1, 1, 3, "yes"),
    ((8, 13), 2, 2, 3, "no"),
    ((8, 16), 1, 3, 3, "no"),
    ((8, 16), 2, 1, 2, "yes"),
    ((8, 16), 1, 2, 3, "no"),
    ((11, 16), 2, 3, 3, "no"),
    ((8, 16), 1, 2, 3, "yes"),
    ((8, 16), 1, 3, 3, "no"),
    ((8, 16), 2, 2, 2, "no"),
]

# k = 4 rows: "no" rows pay the full enumerate_backbones(4, t) wall (18 s on a
# 2-vCPU VM), so they time out; this workload measures reach, not speed.
PRIMAL_K4_CELLS: List[Cell] = [
    ((8, 16), 1, 1, 4, "yes"),
    ((8, 16), 2, 2, 4, "no"),
]

# Two of nine cells are 256-guess no rows (t = 4, two basis terminals); n is
# kept small there and for the other r = 2 cells at k >= 3.
DUAL_CELLS: List[Cell] = [
    ((8, 9), 2, 2, 2, "no"),
    ((8, 12), 1, 2, 3, "no"),
    ((8, 10), 2, 1, 3, "yes"),
    ((8, 12), 1, 1, 4, "yes"),
    ((8, 9), 2, 2, 2, "no"),
    ((8, 12), 1, 2, 2, "no"),
    ((8, 10), 2, 1, 4, "yes"),
    ((8, 12), 1, 1, 3, "no"),
    ((8, 12), 2, 1, 2, "yes"),
]


# ---------------------------------------------------------------------------
# recursion corpus: K17 hosts with many queries, plus breakable paths/barbells

# Each block of twenty instances: one query on the K17-plus-doubled-edge
# host, six breakable yes rows that need the lift (tripled paths at k = 2)
# and thirteen breakable rows whose verdicts take a few milliseconds.  The
# first rank-0 and the first cocycle query pay for the host's separation
# search and universal sets; later queries find them in the solver's
# cross-solve caches.
RECURSION_BLOCK = ("host", "doubled", "tripled", "barbell", "lift",
                   "doubled", "lift", "tripled", "barbell", "lift",
                   "doubled", "tripled", "lift", "barbell", "doubled",
                   "lift", "tripled", "barbell", "lift", "doubled")


def _k17_host(seed: int) -> Tuple[MultiGraph, int]:
    """K17 plus one doubled edge; returns the graph and the duplicate's id."""
    rng = random.Random("dual-recursion/%d/host" % seed)
    g = MultiGraph(HOST_N)
    for u in range(HOST_N):
        for v in range(u + 1, HOST_N):
            g.add_edge(u, v)
    u, v = rng.sample(range(HOST_N), 2)
    dup = g.add_edge(min(u, v), max(u, v))
    return g, dup


def _host_query(rng: random.Random, seed: int, q: int):
    """Query q on the host; perturbation kinds rotate."""
    g, dup = _k17_host(seed)
    eids = g.edge_ids()
    term = dup if rng.random() < 0.2 else rng.choice(eids[:-1])
    kind = ("rank0", "rank1", "cocycle")[q % 3]
    if kind == "rank0":
        p = Gf2Matrix(HOST_N, len(eids))
    elif kind == "rank1":
        p = Gf2Matrix(HOST_N, len(eids), [rng.getrandbits(len(eids))] * HOST_N)
    else:
        # rank-1 tweak that makes {term, partner} a cocycle: a yes at k = 1
        hub = rng.randrange(HOST_N)
        star = 0
        for j, (a, b) in g.edges():
            if (a == hub) != (b == hub):
                star |= 1 << j
        partner = rng.choice([e for e in eids if e != term])
        p = Gf2Matrix(HOST_N, len(eids), [star ^ (1 << term) ^ (1 << partner)] * HOST_N)
    return DualInstance(g, p, [term], 1), "host %s" % kind


def _path(rng: random.Random, copies: int, n: int, parity: int) -> Tuple[MultiGraph, int]:
    """Path on n vertices with one edge repeated `copies` times; one copy is the terminal.

    The repeated edge is path edge `at`, drawn among the positions of the
    given parity.
    """
    g = MultiGraph(n, [(v, v + 1) for v in range(n - 1)])
    at = parity + 2 * rng.randrange((n - parity) // 2)
    term = g.add_edge(at, at + 1)
    for _ in range(copies - 2):
        g.add_edge(at, at + 1)
    return g, term


def _barbell(rng: random.Random, n: int) -> Tuple[MultiGraph, int]:
    """Two K4s joined by a path, n vertices; the terminal doubles a clique edge."""
    g = MultiGraph(n)
    for base in (0, n - 4):
        for a in range(4):
            for c in range(a + 1, 4):
                g.add_edge(base + a, base + c)
    for v in range(3, n - 4):
        g.add_edge(v, v + 1)
    a, c = rng.sample(range(3), 2)
    return g, g.add_edge(a, c)


def _recursion_draw(workload: str, seed: int, i: int, attempt: int) -> Draw:
    block, pos = divmod(i, len(RECURSION_BLOCK))
    slot = RECURSION_BLOCK[pos]
    rng = _rng(workload, seed, i, attempt)
    if slot == "host":
        inst, cell = _host_query(rng, seed, block)
        return Draw(inst, cell)
    # The j-th row of a slot has 18 + j % 3 vertices and, on a path, repeats
    # an edge at a position of parity j // 3 % 2, so every corpus holds the
    # same mix of both: on 18 or 20 vertices a lift at an even position costs
    # about twice one at an odd position.
    j = block * RECURSION_BLOCK.count(slot) + RECURSION_BLOCK[:pos].count(slot)
    n, parity = 18 + j % 3, j // 3 % 2
    if slot == "lift":
        slot, k = "tripled", 2                             # yes instances
    else:
        k = 1 if slot != "barbell" else 2                  # doubled: yes; others: no
    if slot == "doubled":
        g, term = _path(rng, 2, n, parity)
    elif slot == "tripled":
        g, term = _path(rng, 3, n, parity)
    else:
        g, term = _barbell(rng, n)
    p = Gf2Matrix(g.n, g.num_edges)
    return Draw(DualInstance(g, p, [term], k), "%s k%d" % (slot, k))


# The reason for each workload is its "why" in BENCHMARK.json (primal-random,
# dual-recursion) or in scbench/README.md (dual-random, primal-k4).
WORKLOADS: Dict[str, Workload] = {wl.name: wl for wl in (
    # One pass over 180 rows: a row's cost varies up to 3x with its graph
    # within one cell and n, so the corpus sets much of the spread of p50 and
    # the tail, and a corpus three times larger halves it; the least of three
    # passes over 60 rows was no steadier than one pass over them.
    Workload(name="primal-random", rate=4.5, passes=1, limit_s=10.0, solve_args=(),
             draw=_random_draw("primal", PRIMAL_CELLS)),
    Workload(name="dual-random", rate=3.4, passes=3, limit_s=10.0, solve_args=(),
             draw=_random_draw("dual", DUAL_CELLS)),
    # Two full passes: two cold host queries make most of total_s.  The
    # median and the tail fall among the breakable rows, whose times move
    # by up to 40% from pass to pass (the host queries' by about 10%), so
    # five light passes, a few seconds each, give each of them seven times
    # to take the median of.
    Workload(name="dual-recursion", rate=6.0, passes=2, limit_s=30.0, solve_args=RECURSION_ARGS,
             draw=_recursion_draw, light_passes=5),
    Workload(name="primal-k4", rate=0.2, passes=3, limit_s=8.0, solve_args=(),
             draw=_random_draw("primal", PRIMAL_K4_CELLS)),
)}
