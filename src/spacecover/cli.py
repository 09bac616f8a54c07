"""Command line interface: solve, check, gen, and bench subcommands."""

from __future__ import annotations

import argparse
import csv
import functools
import os
import random
import sys
import time
from typing import List, Optional

from . import dual_solver, hardness, oracle, pgm_solver
from .dual_solver import RecursParams, vertex_types
from .fileio import (FormatError, parse_file, parse_report, report_from_solution,
                     serialize_instance, verify_report)
from .instances import DualInstance, random_instance

__all__ = ["main"]

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and shared by later ones.

    Not built at import: importing the CLI stays cheap.
    """
    parser = argparse.ArgumentParser(prog="spacecover",
                                     description="Space Cover solvers for perturbed "
                                                 "graphic matroids and their duals")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("file")
    p_solve.add_argument("--oracle", action="store_true",
                         help="solve by brute force instead of the production pipeline")
    p_solve.add_argument("--q-override", type=int, default=None,
                         help="run the theory-only dual recursion with separation "
                              "side threshold q and small-case threshold q^4")
    p_solve.add_argument("--p-override", type=int, default=None,
                         help="crossing-edge threshold of the dual recursion "
                              "(default 2(k+1); needs --q-override); below "
                              "2(k+1) a \"no\" is not proven exact")
    p_solve.add_argument("--json", action="store_true",
                         help="emit a JSON result report on stdout")

    p_check = sub.add_parser("check",
                             help="validate an instance file, or re-verify a "
                                  "result report against it")
    p_check.add_argument("file")
    p_check.add_argument("report", nargs="?", default=None)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("kind", choices=["mc", "3dm", "random"])
    p_gen.add_argument("out")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--mode", choices=["primal", "dual"], default="primal",
                       help="mode of a random instance; the mc and 3dm reductions "
                            "build primal instances only")
    p_gen.add_argument("--n", type=int, default=6)
    p_gen.add_argument("--m", type=int, default=10)
    p_gen.add_argument("--k", type=int, default=2)
    p_gen.add_argument("--r", type=int, default=1)
    p_gen.add_argument("--terminals", type=int, default=2)
    p_gen.add_argument("--parts", type=int, default=2, help="clique classes (mc)")
    p_gen.add_argument("--part-size", type=int, default=2)
    p_gen.add_argument("--edge-prob", type=float, default=0.6)
    p_gen.add_argument("--q", type=int, default=2, help="universe size (3dm)")
    p_gen.add_argument("--triples", type=int, default=4)

    p_bench = sub.add_parser("bench",
                             help="solve files (or every file in a directory) "
                                  "and emit CSV")
    p_bench.add_argument("paths", nargs="+")
    p_bench.add_argument("--q-override", type=int, default=None)
    p_bench.add_argument("--p-override", type=int, default=None)
    return parser


def _dual_params(inst: DualInstance, args) -> Optional[RecursParams]:
    """Thresholds of the theory-only recursion, or None for the small case only."""
    q = args.q_override
    if q is None:
        return None
    exact_p = 2 * (inst.k + 1)
    p = exact_p if args.p_override is None else args.p_override
    if p < exact_p:
        print("note: --p-override %d is below 2(k+1) = %d, so a \"no\" is not proven exact"
              % (p, exact_p), file=sys.stderr)
    return RecursParams(q, p, q ** 4)


def _solve_oracle(inst):
    if inst.mode == "primal":
        return oracle.solve_primal_bruteforce(inst)
    return oracle.solve_dual_bruteforce(inst)


def _solve_fpt(inst, args, stats):
    if inst.mode == "primal":
        return pgm_solver.solve(inst, stats=stats)
    return dual_solver.solve(inst, params=_dual_params(inst, args), stats=stats)


def _cmd_solve(args) -> int:
    try:
        inst = parse_file(args.file)
    except (OSError, FormatError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    if args.q_override is not None and (args.oracle or inst.mode == "primal"):
        print("error: --q-override sets thresholds of the dual recursion, which %s never runs"
              % ("the --oracle solve" if args.oracle else "a primal solve"), file=sys.stderr)
        return EXIT_ERROR
    stats = {}
    start = time.perf_counter()
    try:
        result = _solve_oracle(inst) if args.oracle else _solve_fpt(inst, args, stats)
    except Exception as exc:  # surface solver failures as exit code 2
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    elapsed = (time.perf_counter() - start) * 1000.0
    report = report_from_solution(inst, result, solver_ms=elapsed, stats=stats)
    if args.json:
        print(report.to_json())
    else:
        if result is not None:
            print("yes F=%s" % " ".join(str(e) for e in report.f_edges))
        else:
            print("no")
    return EXIT_YES if result is not None else EXIT_NO


def _cmd_check(args) -> int:
    try:
        inst = parse_file(args.file)
    except (OSError, FormatError, ValueError) as exc:
        print("invalid: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    if args.report is None:
        print("ok %s n=%d m=%d k=%d |T|=%d r=%d"
              % (inst.mode, inst.graph.n, inst.graph.num_edges, inst.k,
                 len(inst.terminals), inst.r))
        return EXIT_YES
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            report = parse_report(fh.read())
        failure = verify_report(inst, report)
    except (OSError, FormatError) as exc:
        print("invalid: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    if failure is not None:
        print("verification failed: %s" % failure, file=sys.stderr)
        return EXIT_NO
    print("ok %s answer=%s" % (inst.mode, report.answer))
    return EXIT_YES


def _cmd_gen(args) -> int:
    if args.kind != "random" and args.mode == "dual":
        print("error: --mode dual: the %s reduction builds primal instances only" % args.kind,
              file=sys.stderr)
        return EXIT_ERROR
    rng = random.Random(args.seed)
    try:
        if args.kind == "mc":
            mc = hardness.random_mc_instance(args.parts, args.part_size,
                                             args.edge_prob, rng)
            inst = hardness.from_multicolored_clique(mc)
        elif args.kind == "3dm":
            tdm = hardness.random_3dm_instance(args.q, args.triples, rng)
            inst = hardness.from_3dm(tdm)
        else:
            if args.terminals > args.m:
                raise ValueError("%d terminals exceed the m = %d edges"
                                 % (args.terminals, args.m))
            inst = random_instance(args.mode, args.n, args.m, args.r,
                                   args.terminals, args.k, rng)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialize_instance(inst))
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    print("wrote %s" % args.out)
    return EXIT_YES


def _cmd_bench(args) -> int:
    files: List[str] = []
    for path in args.paths:
        if os.path.isdir(path):
            files.extend(os.path.join(path, name) for name in sorted(os.listdir(path)))
        else:
            files.append(path)
    writer = csv.writer(sys.stdout)
    writer.writerow(["file", "mode", "n", "m", "k", "r", "t", "answer",
                     "agree", "solver_ms", "oracle_ms", "guesses", "packing", "search",
                     "esc_tables"])
    status = EXIT_YES
    for path in files:
        try:
            inst = parse_file(path)
        except (OSError, FormatError, ValueError) as exc:
            print("error in %s: %s" % (path, exc), file=sys.stderr)
            status = EXIT_ERROR
            continue
        stats = {}
        try:
            start = time.perf_counter()
            result = _solve_fpt(inst, args, stats)
            solver_ms = (time.perf_counter() - start) * 1000.0
            start = time.perf_counter()
            ref = _solve_oracle(inst)
            oracle_ms = (time.perf_counter() - start) * 1000.0
        except Exception as exc:  # record the failure, keep benching
            print("error in %s: %s" % (path, exc), file=sys.stderr)
            status = EXIT_ERROR
            continue
        agree = (result is None) == (ref is None)
        if inst.mode == "primal":
            t, _ = pgm_solver.edge_types(inst.p)
        else:
            t, _ = vertex_types(inst.p)
        writer.writerow([path, inst.mode, inst.graph.n, inst.graph.num_edges,
                         inst.k, inst.r, t,
                         "yes" if result is not None else "no",
                         "yes" if agree else "no",
                         "%.3f" % solver_ms, "%.3f" % oracle_ms,
                         stats.get("guesses", 0), stats.get("packing", 0),
                         stats.get("search", 0), stats.get("esc_tables", 0)])
        if not agree:
            status = EXIT_ERROR
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "p_override", None) is not None and args.q_override is None:
        print("error: --p-override needs --q-override: without it the dual solve "
              "never reaches the recursion", file=sys.stderr)
        return EXIT_ERROR
    for flag in ("q_override", "p_override"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            print("error: --%s must be non-negative" % flag.replace("_", "-"), file=sys.stderr)
            return EXIT_ERROR
    handlers = {"solve": _cmd_solve, "check": _cmd_check,
                "gen": _cmd_gen, "bench": _cmd_bench}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
