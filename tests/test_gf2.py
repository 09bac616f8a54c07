import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacecover.gf2 import (Gf2Matrix, distinct_columns, distinct_rows,
                            in_span, nullspace, rank, spans_all, support,
                            to_string)


def test_support_and_to_string():
    (v,) = Gf2Matrix.from_strings(["10110"]).row_bits
    assert v == 0b01101
    assert to_string(v, 5) == "10110"
    assert to_string(v, 7) == "1011000"
    assert to_string(0, 3) == "000" and to_string(0, 0) == ""
    assert support(v) == frozenset({0, 2, 3})
    assert support(0) == frozenset()


def test_from_strings_refuses_characters_other_than_0_and_1():
    for lines in (["12", "21"], ["1 ", "01"], ["1_0"], ["+1"], ["10", "0a"]):
        with pytest.raises(ValueError):
            Gf2Matrix.from_strings(lines)
    with pytest.raises(ValueError):
        Gf2Matrix.from_strings(["10", "1"])
    assert Gf2Matrix.from_strings(["", ""]) == Gf2Matrix(2, 0)


def test_matrix_transpose_and_column():
    m = Gf2Matrix.from_strings(["110", "011"])
    assert m.column(1) == 0b11
    assert m.column(2) == 0b10
    with pytest.raises(IndexError):
        m.column(3)
    assert [to_string(col, m.rows) for col in m.columns()] == ["10", "11", "01"]


def test_column_reads_the_transposition_off_the_rows():
    # column(j) reads bit j of each row; columns() transposes in one pass
    rng = random.Random(5)
    for rows, cols in [(0, 0), (0, 3), (4, 0)] + [(rng.randint(1, 9), rng.randint(1, 70))
                                                   for _ in range(60)]:
        m = Gf2Matrix(rows, cols, [rng.getrandbits(cols) if cols else 0 for _ in range(rows)])
        assert [m.column(j) for j in range(cols)] == list(m.columns())
        assert len(m.columns()) == cols
        for j in (-1, cols):
            with pytest.raises(IndexError):
                m.column(j)


def test_rank_examples():
    assert rank(Gf2Matrix.from_strings(["110", "011", "101"])) == 2
    assert rank(Gf2Matrix.from_strings(["100", "010", "001"])) == 3
    assert rank(Gf2Matrix(3, 3)) == 0
    assert rank(Gf2Matrix(3, 3, [0b101, 0b101, 0b010])) == 2


def test_spans_all_agrees_with_rank():
    rng = random.Random(23)
    for _ in range(500):
        rows = [rng.getrandbits(6) for _ in range(rng.randrange(0, 4))]
        words = [rng.getrandbits(6) for _ in range(rng.randrange(0, 3))]
        want = all(rank(Gf2Matrix(len(rows) + 1, 6, rows + [w]))
                   == rank(Gf2Matrix(len(rows), 6, rows)) for w in words)
        assert spans_all(rows, words) == want
    assert spans_all([0b110, 0b011], [0b101, 0])
    assert not spans_all([0b110], [0b110, 0b011])


def test_in_span_returns_witness():
    vecs = [0b011, 0b110]
    assert in_span(vecs, [0b101]) == [frozenset({0, 1})]
    assert in_span(vecs, [0b111]) is None
    assert in_span([], [0]) == [frozenset()]
    assert in_span(vecs, []) == []
    # several targets share one elimination, each with its own witness
    assert in_span(vecs, [0b011, 0b101, 0, 0b110]) == [
        frozenset({0}), frozenset({0, 1}), frozenset(), frozenset({1})]
    # one target outside the span refuses them all
    assert in_span(vecs, [0b011, 0b111, 0b110]) is None


def test_nullspace_dimensions():
    m = Gf2Matrix.from_strings(["1100", "0110"])
    kern = nullspace(m)
    assert len(kern) == 2
    for v in kern:
        for i in range(m.rows):
            assert bin(m.row_bits[i] & v).count("1") % 2 == 0


def test_distinct_rows_and_columns():
    m = Gf2Matrix.from_strings(["101", "101", "010"])
    rows, row_cls = distinct_rows(m)
    assert rows == [0b101, 0b010] and row_cls == {0: 0, 1: 0, 2: 1}
    cols, col_cls = distinct_columns(m)
    assert cols == [0b011, 0b100] and col_cls == {0: 0, 1: 1, 2: 0}


@st.composite
def matrices(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 8))
    bits = draw(st.lists(st.integers(0, (1 << cols) - 1),
                         min_size=rows, max_size=rows))
    return Gf2Matrix(rows, cols, bits)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + len(nullspace(m)) == m.cols


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_transpose_invariant(m):
    assert rank(m) == rank(Gf2Matrix(m.cols, m.rows, list(m.columns())))


@settings(max_examples=150, deadline=None)
@given(matrices(), st.lists(st.integers(0, 1 << 30), max_size=4))
def test_in_span_witness_sums_to_target(m, picks):
    vecs = m.row_bits
    targets = []
    for pick in picks:
        target = 0
        for i in range(m.rows):
            if (pick >> i) & 1:
                target ^= vecs[i]
        targets.append(target)
    combos = in_span(vecs, targets)
    assert combos is not None and len(combos) == len(targets)
    for target, combo in zip(targets, combos):
        acc = 0
        for i in combo:
            acc ^= vecs[i]
        assert acc == target
        # a target's witness does not depend on the targets solved with it
        assert in_span(vecs, [target]) == [combo]
