import itertools

import pytest

from spacecover import derand
from spacecover.derand import (HashFamily, UniversalSet, _universal_demands,
                               build_hash_family, build_universal_set,
                               verify_family, verify_universal)


def test_hash_family_small_exact():
    fam = build_hash_family(6, 3)
    assert fam.n == 6 and fam.k == 3
    assert verify_family(fam)
    for func in fam.functions:
        assert len(func) == 6
        assert set(func) <= set(range(3))


def test_hash_family_k_equals_n():
    fam = build_hash_family(4, 4)
    assert verify_family(fam)
    # the single demand {0,1,2,3} needs one bijective function
    assert any(sorted(f) == [0, 1, 2, 3] for f in fam.functions)


def test_hash_family_k1_trivial():
    fam = build_hash_family(5, 1)
    assert fam.functions == [(0, 0, 0, 0, 0)]


def test_hash_family_bad_params():
    with pytest.raises(ValueError):
        build_hash_family(3, 4)
    with pytest.raises(ValueError):
        build_hash_family(3, 0)


def test_builders_refuse_past_demand_cap(monkeypatch):
    monkeypatch.setattr(derand, "DEMAND_CAP", 6)
    assert verify_family(build_hash_family(4, 2))            # C(4,2) = 6 demands
    assert verify_universal(build_universal_set(3, 2, 1))    # 3 subsets x 2 patterns
    with pytest.raises(ValueError, match="beyond supported range.*DEMAND_CAP"):
        build_hash_family(5, 2)
    with pytest.raises(ValueError, match="beyond supported range.*DEMAND_CAP"):
        build_universal_set(4, 2, 1)


def test_verify_family_detects_gap():
    broken = HashFamily(4, 2, [(0, 0, 1, 1)])  # subset {0,1} never injective
    assert not verify_family(broken)


def test_universal_set_small_exact():
    us = build_universal_set(5, 3, 1)
    assert verify_universal(us)
    for func in us.functions:
        assert set(func) <= {0, 1}


def test_universal_set_p_edges():
    assert verify_universal(build_universal_set(5, 3, 0))
    assert verify_universal(build_universal_set(5, 3, 3))


def test_verify_universal_detects_gap():
    broken = UniversalSet(3, 2, 1, [(0, 1, 0)])
    assert not verify_universal(broken)


def test_universal_realizes_every_pattern_explicitly():
    us = build_universal_set(6, 2, 1)
    for subset in itertools.combinations(range(6), 2):
        for pattern in [(0, 1), (1, 0)]:
            assert any(all(f[i] == b for i, b in zip(subset, pattern))
                       for f in us.functions)


def _greedy_universal_reference(n, k, p):
    """The greedy of build_universal_set, one demand at a time."""
    demands = list(_universal_demands(n, k, p))
    alive = set(range(len(demands)))
    functions = []
    while alive:
        ok = set(alive)
        func = []
        for i in range(n):
            score = [0.0, 0.0]
            for d in ok:
                subset, pattern = demands[d]
                if i in subset:
                    pos = subset.index(i)
                    score[pattern[pos]] += 2.0 ** -(k - 1 - pos)
            b = 1 if score[1] > score[0] else 0
            func.append(b)
            ok = {d for d in ok if i not in demands[d][0]
                  or demands[d][1][demands[d][0].index(i)] == b}
        alive -= ok
        functions.append(tuple(func))
    return functions


def test_universal_set_matches_reference_greedy():
    for n in range(0, 8):
        for k in range(0, min(n, 4) + 1):
            for p in range(0, k + 1):
                assert build_universal_set(n, k, p).functions == \
                    _greedy_universal_reference(n, k, p), (n, k, p)


def test_universal_set_matches_bitset_greedy():
    # build_universal_set is the greedy on one int bitset over all demands;
    # it must pick the reference's bits on every small triple, and on wider
    # triples and both extreme p at larger n
    grid = [(n, k, p) for n in range(10) for k in range(n + 1) for p in range(k + 1)]
    grid += [(11, 7, 3), (13, 6, 0), (13, 6, 6)]
    for n, k, p in grid:
        assert build_universal_set(n, k, p).functions == \
            _greedy_universal_reference(n, k, p), (n, k, p)
