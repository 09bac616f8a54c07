import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacecover.gf2 import (Gf2Matrix, Gf2Vector, basis, distinct_columns,
                            distinct_rows, in_span, nullspace, rank,
                            rank_of_ints, spans_all)


def test_vector_roundtrip_and_indexing():
    v = Gf2Vector.from_string("10110")
    assert v.to_string() == "10110"
    assert [v[i] for i in range(5)] == [1, 0, 1, 1, 0]
    assert v.weight() == 3
    assert v.support() == frozenset({0, 2, 3})
    with pytest.raises(IndexError):
        v[5]


def test_vector_xor_dimension_check():
    a = Gf2Vector.from_string("101")
    b = Gf2Vector.from_string("011")
    assert (a ^ b).to_string() == "110"
    with pytest.raises(ValueError):
        a ^ Gf2Vector(4)


def test_matrix_transpose_and_column():
    m = Gf2Matrix.from_strings(["110", "011"])
    assert m.column(1).to_string() == "11"
    assert m.transpose().to_strings() == ["10", "11", "01"]


def test_rank_examples():
    assert rank(Gf2Matrix.from_strings(["110", "011", "101"])) == 2
    assert rank(Gf2Matrix.from_strings(["100", "010", "001"])) == 3
    assert rank(Gf2Matrix(3, 3)) == 0
    assert rank_of_ints([0b101, 0b101, 0b010]) == 2


def test_spans_all_agrees_with_rank():
    rng = random.Random(23)
    for _ in range(500):
        rows = [rng.getrandbits(6) for _ in range(rng.randrange(0, 4))]
        words = [rng.getrandbits(6) for _ in range(rng.randrange(0, 3))]
        want = all(rank_of_ints(rows + [w]) == rank_of_ints(rows) for w in words)
        assert spans_all(rows, words) == want
    assert spans_all([0b110, 0b011], [0b101, 0])
    assert not spans_all([0b110], [0b110, 0b011])


def test_in_span_returns_witness():
    vecs = [Gf2Vector.from_string("110"), Gf2Vector.from_string("011")]
    target = Gf2Vector.from_string("101")
    combo = in_span(vecs, target)
    assert combo == frozenset({0, 1})
    assert in_span(vecs, Gf2Vector.from_string("111")) is None
    assert in_span([], Gf2Vector(3)) == frozenset()


def test_basis_greedy_order():
    vecs = [Gf2Vector.from_string("110"), Gf2Vector.from_string("110"),
            Gf2Vector.from_string("011"), Gf2Vector.from_string("101")]
    assert basis(vecs) == [0, 2]


def test_nullspace_dimensions():
    m = Gf2Matrix.from_strings(["1100", "0110"])
    kern = nullspace(m)
    assert len(kern) == 2
    for v in kern:
        for i in range(m.rows):
            assert bin(m.row_bits[i] & v.bits).count("1") % 2 == 0


def test_distinct_rows_and_columns():
    m = Gf2Matrix.from_strings(["101", "101", "010"])
    rows, row_cls = distinct_rows(m)
    assert len(rows) == 2 and row_cls == {0: 0, 1: 0, 2: 1}
    cols, col_cls = distinct_columns(m)
    assert len(cols) == 2 and col_cls == {0: 0, 1: 1, 2: 0}


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
    assert rank(m) == rank(m.transpose())


@settings(max_examples=150, deadline=None)
@given(matrices(), st.integers(0, 1 << 30))
def test_in_span_witness_sums_to_target(m, pick):
    vecs = [m.row(i) for i in range(m.rows)]
    target = Gf2Vector(m.cols)
    for i in range(m.rows):
        if (pick >> i) & 1:
            target = target ^ vecs[i]
    combo = in_span(vecs, target)
    assert combo is not None
    acc = Gf2Vector(m.cols)
    for i in combo:
        acc = acc ^ vecs[i]
    assert acc == target
