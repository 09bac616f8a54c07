"""Parsing and serialization of the SCPM v1 instance format and JSON result reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .gf2 import Gf2Matrix, to_string
from .instances import DualInstance, PrimalInstance, SpaceCoverInstance
from .multigraph import MultiGraph

__all__ = [
    "parse_instance",
    "parse_file",
    "serialize_instance",
    "ResultReport",
    "report_from_solution",
    "parse_report",
    "verify_report",
]

MAGIC = "SCPM v1"
VERTEX_CAP = 4096


class FormatError(ValueError):
    """Raised on any malformed SCPM input."""


def _int(token: str, what: str, nonnegative: bool = False) -> int:
    """``token`` as an int, or FormatError naming the field ``what``."""
    try:
        value = int(token)
    except ValueError as exc:
        raise FormatError("non-integer %s: %r" % (what, token)) from exc
    if nonnegative and value < 0:
        raise FormatError("negative %s: %d" % (what, value))
    return value


def parse_instance(text: str) -> SpaceCoverInstance:
    """Parse the SCPM v1 text format.

    Layout: magic line, ``mode primal|dual``, ``n <n> m <m> k <k>``, m lines
    ``edge u v``, ``pert <count>`` followed by ``<row> <bitstring>`` lines
    (bitstrings have length m, columns in edge order, at most one line per
    row), then ``terminals i...`` listing distinct terminal edge indices.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != MAGIC:
        raise FormatError("missing magic line %r" % MAGIC)
    idx = 1

    def take() -> str:
        nonlocal idx
        if idx >= len(lines):
            raise FormatError("unexpected end of input")
        ln = lines[idx]
        idx += 1
        return ln

    mode_line = take().split()
    if len(mode_line) != 2 or mode_line[0] != "mode" or mode_line[1] not in ("primal", "dual"):
        raise FormatError("bad mode line")
    mode = mode_line[1]
    header = take().split()
    if len(header) != 6 or header[0] != "n" or header[2] != "m" or header[4] != "k":
        raise FormatError("bad size line")
    n, m, k = (_int(header[i], header[i - 1], nonnegative=True) for i in (1, 3, 5))
    if n > VERTEX_CAP:
        raise FormatError("beyond supported range: vertex count %d exceeds VERTEX_CAP = %d"
                          % (n, VERTEX_CAP))
    g = MultiGraph(n)
    for _ in range(m):
        parts = take().split()
        if len(parts) != 3 or parts[0] != "edge":
            raise FormatError("bad edge line")
        u, v = _int(parts[1], "endpoint"), _int(parts[2], "endpoint")
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError("endpoint out of range")
        g.add_edge(u, v)
    pert = take().split()
    if len(pert) != 2 or pert[0] != "pert":
        raise FormatError("bad pert line")
    count = _int(pert[1], "pert count", nonnegative=True)
    row_bits = [0] * n
    listed = set()
    for _ in range(count):
        parts = take().split()
        if len(parts) != 2:
            raise FormatError("bad perturbation row line")
        row = _int(parts[0], "perturbation row")
        bits = parts[1]
        if not (0 <= row < n) or len(bits) != m or set(bits) - {"0", "1"}:
            raise FormatError("bad perturbation row")
        if row in listed:
            raise FormatError("repeated perturbation row: %d" % row)
        listed.add(row)
        row_bits[row] = int(bits[::-1], 2) if m else 0
    term_line = take().split()
    if term_line[0] != "terminals":
        raise FormatError("bad terminals line")
    terminals = [_int(x, "terminal id") for x in term_line[1:]]
    listed = set()
    for t in terminals:
        if not (0 <= t < m):
            raise FormatError("terminal index out of range")
        if t in listed:
            raise FormatError("repeated terminal id: %d" % t)
        listed.add(t)
    if idx != len(lines):
        raise FormatError("trailing content")
    p = Gf2Matrix(n, m, row_bits)
    cls = PrimalInstance if mode == "primal" else DualInstance
    return cls(g, p, terminals, k)


def parse_file(path: str) -> SpaceCoverInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def serialize_instance(inst: SpaceCoverInstance) -> str:
    """Inverse of parse_instance; round-trips every valid instance."""
    eids = inst.graph.edge_ids()
    out = [MAGIC, "mode %s" % inst.mode,
           "n %d m %d k %d" % (inst.graph.n, len(eids), inst.k)]
    for eid in eids:
        u, v = inst.graph.endpoints(eid)
        out.append("edge %d %d" % (u, v))
    rows = [(i, bits) for i, bits in enumerate(inst.p.row_bits) if bits]
    out.append("pert %d" % len(rows))
    for i, bits in rows:
        out.append("%d %s" % (i, to_string(bits, inst.p.cols)))
    out.append("terminals %s" % " ".join(map(str, inst.terminals)))
    return "\n".join(out) + "\n"


@dataclass
class ResultReport:
    """Machine-readable outcome of one solve run."""

    mode: str
    answer: str                      # "yes" or "no"
    f_edges: Optional[List[int]] = None
    k: Optional[int] = None          # None when the report names no budget
    solver_ms: float = 0.0
    certificate: Optional[Dict] = None
    stats: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "mode": self.mode,
            "answer": self.answer,
            "k": self.k,
            "solver_ms": round(self.solver_ms, 3),
            "stats": self.stats,
        }
        if self.f_edges is not None:
            payload["f"] = sorted(self.f_edges)
        if self.certificate is not None:
            payload["certificate"] = self.certificate
        return json.dumps(payload, sort_keys=True)


def report_from_solution(inst: SpaceCoverInstance, result,
                         solver_ms: float = 0.0,
                         stats: Optional[Dict[str, int]] = None) -> ResultReport:
    """Build a report (with certificate payload) from a solver's return value."""
    stats = dict(stats or {})
    if result is None:
        return ResultReport(mode=inst.mode, answer="no", k=inst.k,
                            solver_ms=solver_ms, stats=stats)
    f_set, cert = result
    if inst.mode == "primal":
        parts = {str(w): sorted(part) for w, part in cert.parts.items()}
        payload = {"type": "span", "parts": parts}
    else:
        parts = {str(w): {"edges": sorted(cc.edge_set), "x": sorted(cc.x)}
                 for w, cc in cert.items()}
        payload = {"type": "cocycle", "parts": parts}
    return ResultReport(mode=inst.mode, answer="yes", f_edges=sorted(f_set),
                        k=inst.k, solver_ms=solver_ms, certificate=payload,
                        stats=stats)


def parse_report(text: str) -> ResultReport:
    """Parse a JSON result report; raises FormatError on malformed input."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("bad report JSON: %s" % exc) from exc
    if not isinstance(payload, dict):
        raise FormatError("report must be a JSON object")
    mode = payload.get("mode")
    answer = payload.get("answer")
    if mode not in ("primal", "dual") or answer not in ("yes", "no"):
        raise FormatError("report needs a valid mode and answer")
    k = payload.get("k")
    if k is not None and not _is_int(k):
        raise FormatError("report field k must be an integer")
    solver_ms = payload.get("solver_ms", 0.0)
    if not (_is_int(solver_ms) or isinstance(solver_ms, float)):
        raise FormatError("report field solver_ms must be a number")
    f_edges = payload.get("f")
    if f_edges is not None:
        _check_int_list(f_edges, "report field f")
    certificate = payload.get("certificate")
    if certificate is not None:
        _check_certificate(certificate)
    return ResultReport(mode=mode, answer=answer, f_edges=f_edges, k=k,
                        solver_ms=solver_ms, certificate=certificate,
                        stats=payload.get("stats", {}))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int_list(value, what: str) -> None:
    if not isinstance(value, list) or not all(_is_int(x) for x in value):
        raise FormatError("%s must be a list of integers" % what)


def _check_certificate(cert) -> None:
    """The shapes ``verify_report`` reads: span parts are edge lists, cocycle parts
    ``{"edges": [...], "x": [...]}``; a certificate of another type is left to it."""
    if not isinstance(cert, dict):
        raise FormatError("report field certificate must be a JSON object")
    parts = cert.get("parts", {})
    if not isinstance(parts, dict):
        raise FormatError("certificate parts must be a JSON object")
    for term, part in parts.items():
        what = "certificate part %s" % term
        if cert.get("type") == "span":
            _check_int_list(part, what)
        elif cert.get("type") == "cocycle":
            if not isinstance(part, dict):
                raise FormatError("%s must be a JSON object" % what)
            _check_int_list(part.get("edges", []), what + " edges")
            _check_int_list(part.get("x", []), what + " x")


def verify_report(inst: SpaceCoverInstance, report: ResultReport) -> Optional[str]:
    """Independently re-verify a yes-report against its instance.

    Returns None on success or a message naming the first failure; the check
    uses only GF(2) column/row arithmetic, never the solvers. A report of
    another mode or budget than the instance raises FormatError, whatever
    its answer.
    """
    if report.mode != inst.mode:
        raise FormatError("mode mismatch: report %s vs instance %s"
                          % (report.mode, inst.mode))
    if report.k != inst.k:
        raise FormatError("budget mismatch: report k=%s vs instance k=%d"
                          % ("missing" if report.k is None else report.k, inst.k))
    if report.answer == "no":
        return None
    if report.f_edges is None or report.certificate is None:
        return "yes-report missing witness or certificate"
    f_set = set(report.f_edges)
    if len(f_set) > inst.k:
        return "witness exceeds budget k=%d" % inst.k
    if f_set & set(inst.terminals):
        return "witness contains a terminal edge"
    for e in f_set:
        if not inst.graph.has_edge(e):
            return "witness edge %d is not in the graph" % e
    cert = report.certificate
    want_type = "span" if inst.mode == "primal" else "cocycle"
    if cert.get("type") != want_type:
        return "certificate type %r does not match mode" % cert.get("type")
    parts = cert.get("parts", {})
    a = inst.a_matrix
    for term in inst.terminals:
        part = parts.get(str(term))
        if part is None:
            return "terminal %d has no certificate entry" % term
        if inst.mode == "primal":
            if not set(part) <= f_set:
                return "terminal %d cites edges outside the witness" % term
            acc = 0
            for e in part:
                acc ^= a.column(e)
            if acc != a.column(term):
                return "terminal %d: cited columns do not sum to it" % term
        else:
            edges = set(part.get("edges", []))
            x = part.get("x", [])
            if term not in edges:
                return "terminal %d missing from its cocycle" % term
            if not (edges - {term}) <= f_set:
                return "terminal %d cites edges outside the witness" % term
            acc = 0
            for v in x:
                if not 0 <= v < a.rows:
                    return "terminal %d: vertex %d out of range" % (term, v)
                acc ^= a.row_bits[v]
            char = 0
            for e in edges:
                char |= 1 << e
            if acc != char:
                return "terminal %d: row sum is not its cocycle vector" % term
    return None
