import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dual_corpus, primal_corpus
from spacecover import oracle
from spacecover.fileio import (FormatError, parse_instance, parse_report,
                               report_from_solution, serialize_instance,
                               verify_report)
from spacecover.instances import random_instance

SAMPLE = """SCPM v1
mode primal
n 3 m 3 k 2
edge 0 1
edge 1 2
edge 0 2
pert 1
0 101
terminals 2
"""


def test_parse_sample():
    inst = parse_instance(SAMPLE)
    assert inst.mode == "primal"
    assert inst.graph.n == 3 and inst.graph.num_edges == 3 and inst.k == 2
    assert inst.terminals == (2,)
    assert inst.p.to_strings()[0] == "101"


def test_round_trip_500_random_instances():
    rng = random.Random(99)
    for i in range(500):
        mode = "primal" if i % 2 == 0 else "dual"
        inst = random_instance(mode, rng.randrange(1, 8), rng.randrange(0, 12),
                               rng.randrange(0, 3), rng.randrange(0, 4),
                               rng.randrange(0, 4), rng)
        back = parse_instance(serialize_instance(inst))
        assert back.mode == inst.mode
        assert back.k == inst.k
        assert back.graph.n == inst.graph.n
        assert back.graph.edges() == inst.graph.edges()
        assert back.p == inst.p
        assert back.terminals == inst.terminals


@pytest.mark.parametrize("mutation", [
    lambda s: s.replace("SCPM v1", "SCPM v2"),
    lambda s: s.replace("mode primal", "mode sideways"),
    lambda s: s.replace("n 3 m 3 k 2", "n 3 m 3"),
    lambda s: s.replace("edge 0 2", "edge 0 9"),
    lambda s: s.replace("0 101", "0 10"),
    lambda s: s.replace("terminals 2", "terminals 7"),
    lambda s: s + "trailing\n",
])
def test_malformed_inputs_rejected(mutation):
    with pytest.raises(FormatError):
        parse_instance(mutation(SAMPLE))


@pytest.mark.parametrize("old, new, field", [
    ("pert 1", "pert one", "pert count"),
    ("pert 1", "pert -1", "pert count"),
    ("0 101", "x 101", "perturbation row"),
    ("terminals 2", "terminals 2.0", "terminal id"),
    ("n 3 m 3 k 2", "n -3 m 3 k 2", "n"),
    ("n 3 m 3 k 2", "n 3 m -3 k 2", "m"),
    ("n 3 m 3 k 2", "n 3 m 3 k -2", "k"),
])
def test_bad_integer_fields_are_named(old, new, field):
    with pytest.raises(FormatError, match=r"^(non-integer|negative) %s: " % field):
        parse_instance(SAMPLE.replace(old, new))


@pytest.mark.parametrize("old, new, field", [
    # XOR-ing the two lines would give P = 0, deduplicating would hide the typo
    ("pert 1\n0 101", "pert 2\n0 101\n0 101", "perturbation row: 0"),
    ("pert 1\n0 101", "pert 3\n0 101\n2 011\n2 110", "perturbation row: 2"),
    ("terminals 2", "terminals 2 2", "terminal id: 2"),
    ("terminals 2", "terminals 0 1 0", "terminal id: 0"),
])
def test_repeated_rows_and_terminals_are_named(old, new, field):
    with pytest.raises(FormatError, match=r"^repeated %s$" % field):
        parse_instance(SAMPLE.replace(old, new))


_TOKENS = ["SCPM", "v1", "v2", "mode", "primal", "dual", "n", "m", "k", "edge", "pert",
           "terminals", "x", "1.5", "-", "0b1", "1e3", "\u0663", "101", "10", "1011", ""]


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 8), st.sampled_from(["replace", "insert", "delete"]),
       st.lists(st.one_of(st.sampled_from(_TOKENS), st.integers(-3, 12).map(str),
                          st.text(alphabet="01", min_size=1, max_size=5)),
                max_size=7))
def test_single_line_mutations_parse_or_raise_format_error(at, how, tokens):
    lines = SAMPLE.splitlines()
    line = " ".join(tokens)
    if how == "replace":
        lines[at] = line
    elif how == "insert":
        lines.insert(at, line)
    else:
        del lines[at]
    try:
        parse_instance("\n".join(lines) + "\n")
    except FormatError:
        pass


def test_report_round_trip_and_verification():
    checked = 0
    for inst in primal_corpus(15, seed=21) + dual_corpus(15, seed=22):
        if inst.mode == "primal":
            res = oracle.solve_primal_bruteforce(inst)
        else:
            res = oracle.solve_dual_bruteforce(inst)
        report = parse_report(report_from_solution(inst, res).to_json())
        assert verify_report(inst, report) is None
        if res is not None:
            checked += 1
    assert checked > 0


def test_verify_report_rejects_tampering():
    for inst in primal_corpus(40, seed=31):
        res = oracle.solve_primal_bruteforce(inst)
        if res is None or not res[0]:
            continue
        report = report_from_solution(inst, res)
        payload = json.loads(report.to_json())
        payload["f"] = payload["f"][:-1]
        assert verify_report(inst, parse_report(json.dumps(payload))) is not None
        return
    raise AssertionError("corpus produced no nonempty witness")


def test_verify_report_mode_mismatch():
    inst = primal_corpus(1, seed=41)[0]
    report = report_from_solution(inst, None)
    report.mode = "dual"
    with pytest.raises(FormatError):
        verify_report(inst, report)


def test_readme_format_block_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```\n(SCPM v1\n.*?)```", readme, re.S).group(1)
    inst = parse_instance(block)
    assert (inst.mode, inst.graph.n, inst.graph.num_edges, inst.k) == ("primal", 3, 3, 2)
    assert inst.p.row_bits == [0, 0, 1 << 2]
    assert list(inst.terminals) == [2]
