import time
from collections import Counter

import pytest

from conftest import library_pattern_classes, oracle_pattern_classes
from nsp.patterns import (N_LEAVES, N_SPLITS, enumerate_patterns, n_groups,
                          pattern_by_id)

EXPECTED_GROUP_SIZES = {
    "quad-slabs": 1,
    "three-slabs-one-split": 3,
    "slab-of-three": 2,
    "both-slabs-split": 1,
    "nested-resplit-low": 2,
    "nested-resplit-high": 2,
}


def test_eleven_patterns_in_six_groups():
    pats = enumerate_patterns()
    assert len(pats) == 11
    assert n_groups() == 6
    sizes = Counter(p.group_name for p in pats)
    assert dict(sizes) == EXPECTED_GROUP_SIZES
    assert {p.group_id for p in pats} == set(range(6))


def test_matches_exhaustive_oracle():
    """The pattern table must be exactly the brute-force template enumeration."""
    expected = oracle_pattern_classes()
    got = library_pattern_classes(enumerate_patterns())
    assert len(expected) == 11
    assert len(got) == 11
    assert set(got) == expected


def test_patterns_realise_disjoint_layout_sets():
    classes = library_pattern_classes(enumerate_patterns())
    assert len(set(classes)) == 11
    seen = set()
    for sigs in classes:
        assert not (sigs & seen)  # no layout reachable from two patterns
        seen |= sigs


def test_ids_sorted_by_canonical_key():
    pats = enumerate_patterns()
    keys = [p.canonical_key for p in pats]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for i, p in enumerate(pats):
        assert p.pattern_id == i
        assert pattern_by_id(i) is p


def test_pattern_by_id_range():
    with pytest.raises(ValueError):
        pattern_by_id(-1)
    with pytest.raises(ValueError):
        pattern_by_id(11)


def test_split_bookkeeping_consistent():
    for p in enumerate_patterns():
        assert p.n_x + p.n_y == N_SPLITS
        assert set(p.x_cuts) | set(p.y_cuts) == set(range(N_SPLITS))
        assert sorted(p.leaf_map) == sorted(p.leaf_map)  # ints
        assert set(p.leaf_map) == set(range(N_LEAVES))
        assert len(p.leaf_map) == 2 ** N_SPLITS


def test_boundary_equality_goes_to_upper_side():
    p = enumerate_patterns()[0]
    bounds = (10, 20, 30)
    for slot in range(N_SPLITS):
        feat = [0, 0]
        feat[p.axes[slot]] = bounds[slot]
        code = p.code_of(feat[0], feat[1], bounds)
        assert (code >> (N_SPLITS - 1 - slot)) & 1 == 1


def test_enumeration_under_a_second():
    enumerate_patterns.cache_clear()
    t0 = time.perf_counter()
    pats = enumerate_patterns()
    dt = time.perf_counter() - t0
    assert len(pats) == 11
    assert dt < 1.0
