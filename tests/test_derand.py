import itertools

import pytest

from spacecover import derand
from spacecover.derand import (HashFamily, UniversalSet, build_hash_family,
                               build_universal_set, verify_family, verify_universal)


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
