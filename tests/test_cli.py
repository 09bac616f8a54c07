import csv
import importlib
import io
import json
import os
import subprocess
import sys
import textwrap

import pytest

import spacecover
from spacecover import binmatroid, cli, dual_solver, pattern_cover, pgm_solver
from spacecover.cli import EXIT_ERROR, EXIT_NO, EXIT_YES, main
from spacecover.fileio import parse_file, serialize_instance
from spacecover.gf2 import Gf2Matrix
from spacecover.instances import DualInstance
from spacecover.multigraph import MultiGraph

TRIANGLE_YES = """SCPM v1
mode primal
n 3 m 3 k 2
edge 0 1
edge 1 2
edge 0 2
pert 0
terminals 2
"""

TRIANGLE_DUAL = TRIANGLE_YES.replace("mode primal", "mode dual").replace("k 2", "k 1")

# A 4-cycle with one terminal: only the 3-edge path covers it, so some guess
# leaves two pattern vertices free and needs a hash family with k = 2.
SQUARE_YES = """SCPM v1
mode primal
n 4 m 4 k 3
edge 0 1
edge 1 2
edge 2 3
edge 0 3
pert 0
terminals 3
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_solve_yes_exit_zero(tmp_path, capsys):
    inst = write(tmp_path / "tri.scpm", TRIANGLE_YES)
    assert main(["solve", inst]) == EXIT_YES
    out = capsys.readouterr().out
    assert out.startswith("yes F=")


def test_solve_no_exit_one(tmp_path, capsys):
    inst = write(tmp_path / "tri.scpm", TRIANGLE_YES.replace("k 2", "k 1"))
    assert main(["solve", inst]) == EXIT_NO
    assert capsys.readouterr().out.strip() == "no"


# three parallel edges, terminal 0: the dual needs both others, the circuits {0, 1} and {0, 2}
BUNDLE_DUAL_NO = """SCPM v1
mode dual
n 2 m 3 k 1
edge 0 1
edge 0 1
edge 0 1
pert 0
terminals 0
"""


@pytest.mark.parametrize("text", [TRIANGLE_YES.replace("k 2", "k 1"), BUNDLE_DUAL_NO],
                         ids=["primal", "dual"])
def test_solve_json_reports_a_packing_refutation(tmp_path, capsys, text):
    inst = write(tmp_path / "no.scpm", text)
    assert main(["solve", inst, "--json"]) == EXIT_NO
    payload = json.loads(capsys.readouterr().out)
    assert payload["answer"] == "no"
    assert payload["stats"]["packing"] > payload["k"] == 1
    assert "guesses" not in payload["stats"]


@pytest.mark.parametrize("text, solver, contains",
                         [(TRIANGLE_YES, pgm_solver, "span_contains"),
                          (TRIANGLE_DUAL, dual_solver, "dual_span_contains")],
                         ids=["primal", "dual"])
def test_solve_exits_two_when_the_tree_cover_fails_its_certificate(tmp_path, capsys, monkeypatch,
                                                                   text, solver, contains):
    inst = write(tmp_path / "yes.scpm", text)
    assert main(["solve", inst, "--json"]) == EXIT_YES
    assert json.loads(capsys.readouterr().out)["stats"]["search"] > 1
    monkeypatch.setattr(solver, contains, lambda *args: None)
    assert main(["solve", inst, "--json"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:"), captured.err
    assert "cover failed its certificate" in captured.err


def test_solve_malformed_exit_two(tmp_path, capsys):
    inst = write(tmp_path / "bad.scpm", TRIANGLE_YES.replace("pert 0", "pert x"))
    assert main(["solve", inst]) == EXIT_ERROR
    assert main(["solve", str(tmp_path / "missing.scpm")]) == EXIT_ERROR
    capsys.readouterr()


@pytest.mark.parametrize("old, new, message", [
    ("pert 0", "pert 2\n2 001\n2 001", "repeated perturbation row: 2"),
    ("terminals 2", "terminals 0 0", "repeated terminal id: 0"),
], ids=["pert-row", "terminal"])
def test_solve_repeated_row_or_terminal_exit_two(tmp_path, capsys, old, new, message):
    inst = write(tmp_path / "repeated.scpm", TRIANGLE_YES.replace(old, new))
    for command in ("solve", "check"):
        assert main([command, inst]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, captured.err


@pytest.mark.parametrize("extra, mode, seed", [
    (["--q-override", "2"], "primal", "1"),
    (["--q-override", "2", "--oracle"], "dual", "7"),
    (["--q-override", "2", "--p-override", "4", "--oracle"], "dual", "7"),
], ids=["primal", "oracle", "oracle-p-override"])
def test_solve_refuses_q_override_that_nothing_reads(tmp_path, capsys, extra, mode, seed):
    # each generated file answers yes without the flag, which used to be ignored silently
    path = str(tmp_path / "gen.scpm")
    assert main(["gen", "random", path, "--mode", mode, "--seed", seed]) == EXIT_YES
    capsys.readouterr()
    assert main(["solve", path, *[x for x in extra if x.startswith("--o")]]) == EXIT_YES
    capsys.readouterr()
    assert main(["solve", path, *extra]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "--q-override" in captured.err, captured.err
    # bench applies the thresholds to dual rows and runs primal rows without them
    assert main(["bench", path, "--q-override", "2"]) == EXIT_YES
    capsys.readouterr()


def test_solve_json_report_checks(tmp_path, capsys):
    inst = write(tmp_path / "tri.scpm", TRIANGLE_YES)
    assert main(["solve", inst, "--json"]) == EXIT_YES
    payload = json.loads(capsys.readouterr().out)
    assert payload["answer"] == "yes"
    assert len(payload["f"]) == 2
    report = write(tmp_path / "tri.report.json", json.dumps(payload))
    assert main(["check", inst, report]) == EXIT_YES
    capsys.readouterr()


# K_5 with a doubled edge as its terminal: with q = 1 it has no separation,
# and its 5 vertices reach nbig = (q + 2(k+1))|T|, so the unbreakable branch
# runs EOCT.
K5_DUAL = ("SCPM v1\nmode dual\nn 5 m 11 k 1\n"
           + "".join("edge %d %d\n" % (u, v) for u in range(5) for v in range(u + 1, 5))
           + "edge 0 1\npert 0\nterminals 10\n")

# Each cap is lowered until the triangle reaches it: the primal rows through
# backbones, cycle counts and patterns, the dual rows through the recursion
# (with q = 1 the triangle has no separation). Hash families colour only free
# pattern vertices, so the square reaches DEMAND_CAP, and K_5 reaches EOCT.
# The search tree would decide the primal rows itself, so it stops at its root.
# The --oracle solve reaches SUBSET_BUDGET on the triangle's four candidate subsets.
CAP_CASES = {
    "BACKBONE_EDGE_CAP": ("pgm_solver", 1, TRIANGLE_YES, []),
    "CYCLE_COUNT_EDGE_CAP": ("multigraph", 1, TRIANGLE_YES, []),
    "PATTERN_VERTEX_CAP": ("pattern_cover", 1, TRIANGLE_YES, []),
    "DEMAND_CAP": ("derand", 0, SQUARE_YES, []),
    "EOCT_K_CAP": ("eoct", 0, K5_DUAL, ["--q-override", "1"]),
    "SEPARATION_EXACT_VERTEX_CAP": ("multigraph", 2, TRIANGLE_DUAL, ["--q-override", "1"]),
    "VERTEX_CAP": ("fileio", 2, TRIANGLE_YES, []),
    "SUBSET_BUDGET": ("oracle", 0, TRIANGLE_YES, ["--oracle"]),
}


@pytest.mark.parametrize("cap", list(CAP_CASES))
def test_solve_refuses_past_each_cap(tmp_path, capsys, monkeypatch, cap):
    module, value, text, extra = CAP_CASES[cap]
    # no cached backbone class or family may answer in place of a capped build
    pgm_solver._backbone_classes.cache_clear()
    pattern_cover._hash_family_cached.cache_clear()
    monkeypatch.setattr(binmatroid, "SEARCH_NODE_CAP", 1)
    monkeypatch.setattr(importlib.import_module("spacecover." + module), cap, value)
    inst = write(tmp_path / "tri.scpm", text)
    assert main(["solve", inst, *extra]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "beyond supported range" in err and cap in err, err


def test_p_override_needs_q_override(tmp_path, capsys):
    inst = write(tmp_path / "tri.scpm", TRIANGLE_DUAL)
    assert main(["solve", inst, "--p-override", "2"]) == EXIT_ERROR
    assert main(["bench", inst, "--p-override", "2"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("--p-override needs --q-override") == 2


# Three vertices lie below nbig = (q + 2(k+1))|T| = 5 at q = 1, so the
# unbreakable branch hands them to the small case; the answer is F = {0}.
BELOW_NBIG_YES = """SCPM v1
mode dual
n 3 m 4 k 1
edge 2 1
edge 2 2
edge 2 1
edge 0 2
pert 2
0 0011
1 0011
terminals 3
"""


@pytest.mark.parametrize("extra", [[], ["--oracle"], ["--q-override", "1"]])
def test_solve_below_nbig_vertices_says_yes(tmp_path, capsys, extra):
    inst = write(tmp_path / "small.scpm", BELOW_NBIG_YES)
    assert main(["solve", inst, *extra]) == EXIT_YES
    assert capsys.readouterr().out.strip() == "yes F=0"


# A 4-cycle plus a terminal chord, with a budget above BACKBONE_EDGE_CAP: a
# minimum F is independent, so the solver needs no budget above rank 3.
CHORD_BUDGET_9 = """SCPM v1
mode primal
n 4 m 5 k 9
edge 0 1
edge 1 2
edge 2 3
edge 3 0
edge 0 2
pert 0
terminals 4
"""

# The same graph with edge 0 perturbed onto vertex 0 and made the terminal:
# its column is vertex 1 alone, outside the even-weight span of the others.
CHORD_BUDGET_9_NO = CHORD_BUDGET_9.replace("pert 0\nterminals 4", "pert 1\n0 10000\nterminals 0")


@pytest.mark.parametrize("text, code, out", [(CHORD_BUDGET_9, EXIT_YES, "yes F=0 1"),
                                             (CHORD_BUDGET_9_NO, EXIT_NO, "no")])
def test_budget_above_rank_matches_oracle(tmp_path, capsys, text, code, out):
    inst = write(tmp_path / "chord.scpm", text)
    for extra in ([], ["--oracle"]):
        assert main(["solve", inst, *extra]) == code
        assert capsys.readouterr().out.strip() == out


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_p_override_below_two_k_plus_two_notes_no_is_inexact(tmp_path, capsys, command):
    inst = write(tmp_path / "tri.scpm", TRIANGLE_DUAL)
    note = 'below 2(k+1) = 4, so a "no" is not proven exact'
    main([command, inst, "--q-override", "2", "--p-override", "2"])
    assert note in capsys.readouterr().err
    for extra in ([], ["--p-override", "4"]):
        main([command, inst, "--q-override", "2", *extra])
        assert "note:" not in capsys.readouterr().err


def test_main_twice_carries_no_option_over(tmp_path, capsys):
    # the parser is built once per process; each call still parses afresh
    inst = write(tmp_path / "tri.scpm", TRIANGLE_DUAL)
    assert main(["solve", inst, "--q-override", "2", "--p-override", "2"]) == EXIT_YES
    assert main(["solve", inst, "--p-override", "2"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out.startswith("yes F=")
    assert "--p-override needs --q-override" in captured.err
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize("flag", ["--q-override", "--p-override"])
def test_negative_threshold_exits_two(tmp_path, capsys, command, flag):
    inst = write(tmp_path / "tri.scpm", TRIANGLE_DUAL)
    other = "--p-override" if flag == "--q-override" else "--q-override"
    assert main([command, inst, flag + "=-1", other, "2"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "%s must be non-negative" % flag in captured.err, captured.err


def test_check_tampered_witness_exit_one(tmp_path, capsys):
    inst = write(tmp_path / "tri.scpm", TRIANGLE_YES)
    main(["solve", inst, "--json"])
    payload = json.loads(capsys.readouterr().out)
    payload["f"] = payload["f"][:1]
    report = write(tmp_path / "tampered.json", json.dumps(payload))
    assert main(["check", inst, report]) == EXIT_NO
    capsys.readouterr()


# One forgery per message of verify_report, each applied to a real yes-report
# of the triangle: F = [0, 1] in primal mode, F = [0] in dual mode, terminal 2.
FORGED_EITHER_MODE = [
    ("no-certificate", lambda r: r.pop("certificate"),
     "yes-report missing witness or certificate"),
    ("over-budget", lambda r: r.update(f=r["f"] + [7, 8]), "witness exceeds budget k="),
    ("terminal-in-f", lambda r: r.update(f=[2]), "witness contains a terminal edge"),
    ("absent-edge", lambda r: r.update(f=[7]), "witness edge 7 is not in the graph"),
    ("type", lambda r: r["certificate"].update(type="bogus"),
     "certificate type 'bogus' does not match mode"),
    ("no-entry", lambda r: r["certificate"]["parts"].clear(),
     "terminal 2 has no certificate entry"),
]
FORGED_PRIMAL = [
    ("outside-f", lambda r: r["certificate"]["parts"].update({"2": [0, 7]}),
     "terminal 2 cites edges outside the witness"),
    ("wrong-sum", lambda r: r["certificate"]["parts"].update({"2": [0]}),
     "terminal 2: cited columns do not sum to it"),
]
FORGED_DUAL = [
    ("no-terminal", lambda r: r["certificate"]["parts"]["2"].update(edges=[0]),
     "terminal 2 missing from its cocycle"),
    ("outside-f", lambda r: r["certificate"]["parts"]["2"].update(edges=[0, 1, 2]),
     "terminal 2 cites edges outside the witness"),
    ("vertex-range", lambda r: r["certificate"]["parts"]["2"].update(x=[5]),
     "terminal 2: vertex 5 out of range"),
    ("wrong-x", lambda r: r["certificate"]["parts"]["2"].update(x=[1]),
     "terminal 2: row sum is not its cocycle vector"),
]
FORGERIES = ([(mode,) + case for mode in ("primal", "dual") for case in FORGED_EITHER_MODE]
             + [("primal",) + case for case in FORGED_PRIMAL]
             + [("dual",) + case for case in FORGED_DUAL])


@pytest.mark.parametrize("mode, name, forge, message", FORGERIES,
                         ids=["%s-%s" % case[:2] for case in FORGERIES])
def test_check_rejects_each_forged_yes_report(tmp_path, capsys, mode, name, forge, message):
    inst = write(tmp_path / "tri.scpm", TRIANGLE_YES if mode == "primal" else TRIANGLE_DUAL)
    assert main(["solve", inst, "--json"]) == EXIT_YES
    payload = json.loads(capsys.readouterr().out)
    assert main(["check", inst, write(tmp_path / "real.json", json.dumps(payload))]) == EXIT_YES
    capsys.readouterr()
    forge(payload)
    assert main(["check", inst, write(tmp_path / "forged.json", json.dumps(payload))]) == EXIT_NO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failed: " + message), captured.err


def test_check_mode_mismatch_exit_two(tmp_path, capsys):
    inst = write(tmp_path / "tri.scpm", TRIANGLE_YES)
    main(["solve", inst, "--json"])
    payload = json.loads(capsys.readouterr().out)
    payload["mode"] = "dual"
    report = write(tmp_path / "mismatch.json", json.dumps(payload))
    assert main(["check", inst, report]) == EXIT_ERROR
    capsys.readouterr()


@pytest.mark.parametrize("k", [-1, 3, None], ids=["negative", "other", "missing"])
@pytest.mark.parametrize("budget, answer", [("k 2", "yes"), ("k 1", "no")])
def test_check_budget_mismatch_exit_two(tmp_path, capsys, k, budget, answer):
    inst = write(tmp_path / "tri.scpm", TRIANGLE_YES.replace("k 2", budget))
    main(["solve", inst, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["answer"] == answer
    if k is None:
        del payload["k"]
    else:
        payload["k"] = k
    report = write(tmp_path / "budget.json", json.dumps(payload))
    assert main(["check", inst, report]) == EXIT_ERROR
    assert capsys.readouterr().err == "invalid: budget mismatch: report k=%s vs instance k=%s\n" \
        % ("missing" if k is None else k, budget[2:])


@pytest.mark.parametrize("field, value", [
    ("k", "x"),
    ("f", 3),
    ("certificate", [1]),
    ("parts", [1]),
], ids=["k", "f", "certificate", "parts"])
def test_check_malformed_report_exit_two(tmp_path, capsys, field, value):
    inst = write(tmp_path / "tri.scpm", TRIANGLE_YES)
    main(["solve", inst, "--json"])
    payload = json.loads(capsys.readouterr().out)
    if field == "parts":
        payload["certificate"]["parts"] = value
    else:
        payload[field] = value
    report = write(tmp_path / "malformed.json", json.dumps(payload))
    assert main(["check", inst, report]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("invalid: ")


def test_check_instance_only(tmp_path, capsys):
    inst = write(tmp_path / "tri.scpm", TRIANGLE_YES)
    assert main(["check", inst]) == EXIT_YES
    assert "ok primal" in capsys.readouterr().out


def test_gen_is_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a.scpm")
    b = str(tmp_path / "b.scpm")
    for out in (a, b):
        assert main(["gen", "random", out, "--seed", "9", "--n", "5",
                     "--m", "7", "--k", "2", "--r", "1"]) == EXIT_YES
    capsys.readouterr()
    assert open(a, "rb").read() == open(b, "rb").read()


def test_gen_random_r_zero_all_zero_p(tmp_path, capsys):
    out = str(tmp_path / "z.scpm")
    assert main(["gen", "random", out, "--seed", "1", "--r", "0"]) == EXIT_YES
    capsys.readouterr()
    inst = parse_file(out)
    assert all(bits == 0 for bits in inst.p.row_bits)


def test_gen_3dm_q1_shape(tmp_path, capsys):
    out = str(tmp_path / "t.scpm")
    assert main(["gen", "3dm", out, "--seed", "2", "--q", "1",
                 "--triples", "1"]) == EXIT_YES
    capsys.readouterr()
    inst = parse_file(out)
    assert len(inst.terminals) == 2
    assert inst.r <= 2
    assert inst.k == 3


def test_gen_mc_solvable_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "mc.scpm")
    assert main(["gen", "mc", out, "--seed", "4", "--parts", "2",
                 "--part-size", "2", "--edge-prob", "1.0"]) == EXIT_YES
    capsys.readouterr()
    assert main(["solve", out, "--oracle"]) == EXIT_YES
    capsys.readouterr()


@pytest.mark.parametrize("args, problem", [
    (["random", "OUT", "--n", "0"], "n = 0, m = 10"),
    (["random", "OUT", "--k", "-1"], "negative budget"),
    (["3dm", "OUT", "--q", "0"], "size q = 0"),
    (["3dm", "OUT", "--q", "1", "--triples", "2"], "2 distinct triples"),
    (["random", "missing/OUT"], "No such file or directory"),
    (["mc", "OUT", "--edge-prob", "2"], "edge probability 2.0 is not in [0, 1]"),
    (["mc", "OUT", "--edge-prob", "-1"], "edge probability -1.0 is not in [0, 1]"),
    (["mc", "OUT", "--edge-prob", "nan"], "edge probability nan is not in [0, 1]"),
    (["random", "OUT", "--m", "10", "--terminals", "50"], "50 terminals exceed the m = 10 edges"),
    (["mc", "OUT", "--parts", "-1"], "part count -1 is negative"),
    (["mc", "OUT", "--parts", "2", "--part-size", "-1"], "part size -1 is negative"),
    (["mc", "OUT", "--mode", "dual"], "the mc reduction builds primal instances only"),
    (["3dm", "OUT", "--mode", "dual"], "the 3dm reduction builds primal instances only"),
])
def test_gen_bad_arguments_exit_two(tmp_path, capsys, args, problem):
    out = str(tmp_path / args[1])
    assert main(["gen", args[0], out, *args[2:]]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and problem in captured.err, captured.err
    assert not os.path.exists(out)


def test_bench_rows_and_agreement(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, seed in enumerate(("11", "12", "13")):
        assert main(["gen", "random", str(corpus / ("i%d.scpm" % i)),
                     "--seed", seed, "--n", "5", "--m", "7", "--k", "2",
                     "--r", "1"]) == EXIT_YES
    # P has three distinct rows but two distinct columns; primal rows count columns
    write(corpus / "types.scpm", TRIANGLE_YES.replace("n 3 m 3 k 2", "n 3 m 2 k 1")
          .replace("edge 0 2\n", "").replace("pert 0", "pert 3\n0 10\n1 01\n2 11")
          .replace("terminals 2", "terminals 0"))
    capsys.readouterr()
    assert main(["bench", str(corpus)]) == EXIT_YES
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("file,mode,")
    assert len(lines) == 5
    for row in lines[1:]:
        assert ",yes," in row or row.split(",")[8] == "yes"
    assert lines[-1].split(",")[6] == "2"


@pytest.mark.parametrize("extra", [[], ["--q-override", "2"]], ids=["default", "q-override"])
def test_bench_columns_tell_packing_from_guesses(tmp_path, capsys, extra):
    corpus = tmp_path / "dual"
    corpus.mkdir()
    write(corpus / "bundle.scpm", BUNDLE_DUAL_NO)
    assert main(["gen", "random", str(corpus / "random.scpm"), "--seed", "1", "--mode", "dual",
                 "--n", "8", "--m", "14", "--k", "3"]) == EXIT_YES
    capsys.readouterr()
    assert main(["bench", str(corpus)] + extra) == EXIT_YES
    bundle, rand = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert rand["answer"] == "no" and rand["packing"] == "0"
    if extra:
        # a solve with thresholds skips the bound and the tree and runs its guesses
        assert bundle["packing"] == bundle["search"] == rand["search"] == "0"
        assert int(bundle["guesses"]) >= int(bundle["esc_tables"]) > 0
        # 16 parity guesses share 4 flip-map tuples, so they build 4 tables
        assert (rand["guesses"], rand["esc_tables"]) == ("16", "4")
    else:
        assert (bundle["packing"], bundle["search"], bundle["guesses"], bundle["esc_tables"]) \
            == ("2", "0", "0", "0")
        # the root bound leaves the random row to the search tree, which refutes it
        assert int(rand["search"]) > 0 and (rand["guesses"], rand["esc_tables"]) == ("0", "0")


def test_solve_without_numpy_reaches_unbreakable_branch(tmp_path):
    # a 4-regular circulant on 16 vertices is (2,2)-unbreakable, and vertex 16
    # hangs on a doubled edge whose second copy is the terminal
    g = MultiGraph(17, [(i, (i + s) % 16) for s in (1, 2) for i in range(16)]
                   + [(0, 16), (0, 16)])
    inst = DualInstance(g, Gf2Matrix(17, g.num_edges), [g.num_edges - 1], 1)
    path = write(tmp_path / "circulant.scpm", serialize_instance(inst))
    script = textwrap.dedent("""
        import sys
        sys.modules["numpy"] = None
        import spacecover.cli
        from spacecover import dual_solver
        calls = []
        case = dual_solver._unbreakable_case
        dual_solver._unbreakable_case = lambda *a: calls.append(a) or case(*a)
        code = spacecover.cli.main(["solve", sys.argv[1], "--q-override", "2",
                                    "--p-override", "2"])
        assert calls, "_unbreakable_case was not reached"
        sys.exit(code)
    """)
    src = os.path.dirname(os.path.dirname(spacecover.__file__))
    proc = subprocess.run([sys.executable, "-c", script, path], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=600)
    assert proc.returncode == EXIT_YES, proc.stderr
    assert proc.stdout.startswith("yes F=")


def test_bench_empty_dir_header_only(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["bench", str(empty)]) == EXIT_YES
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
