import math
import random

import numpy as np
import pytest

from coinprimes import semigroup
from coinprimes.errors import NotCoprime


def closure_flags(a, b, limit):
    """Reachability table for au + bv by dynamic programming."""
    reach = [False] * (limit + 1)
    reach[0] = True
    for g in (a, b):
        for n in range(g, limit + 1):
            if reach[n - g]:
                reach[n] = True
    return reach


def test_new_pair_validation():
    with pytest.raises(NotCoprime):
        semigroup.new_pair(4, 6)
    with pytest.raises(ValueError):
        semigroup.new_pair(0, 5)
    with pytest.raises(ValueError):
        semigroup.new_pair(3, -1)


def test_pair_fields():
    p = semigroup.new_pair(3, 5)
    assert (p.a, p.b, p.s) == (3, 5, 7)
    assert str(p) == "<3,5>"
    assert p.b * p.b_inv_mod_a % p.a == 1
    assert semigroup.new_pair(1, 9).s == -1


def test_contains_against_closure():
    rng = random.Random(31)
    for _ in range(25):
        a = rng.randrange(2, 30)
        b = rng.randrange(2, 100)
        if math.gcd(a, b) != 1:
            continue
        pair = semigroup.new_pair(a, b)
        limit = pair.s + 2 * a
        reach = closure_flags(a, b, limit)
        for n in range(limit + 1):
            assert semigroup.contains(pair, n) == reach[n], (a, b, n)


def test_contains_edges():
    p = semigroup.new_pair(3, 5)
    assert not semigroup.contains(p, -1)
    assert semigroup.contains(p, 0)
    assert not semigroup.contains(p, p.s)
    for n in range(p.s + 1, p.s + 50):
        assert semigroup.contains(p, n)
    one = semigroup.new_pair(1, 7)
    assert semigroup.contains(one, 0) and semigroup.contains(one, 1)


def test_apery_table_is_least_element_per_class():
    rng = random.Random(32)
    for a in [1, 2, 3, 7, 12, 29] + [rng.randrange(2, 60) for _ in range(10)]:
        b = rng.choice([b for b in range(2, 200) if math.gcd(a, b) == 1])
        pair = semigroup.new_pair(a, b)
        reach = closure_flags(a, b, a * b)
        table = semigroup.apery_table(a, b, pair.b_inv_mod_a)
        assert table.dtype == np.int64
        assert table.tolist() == [min(n for n in range(c, a * b + 1, a) if reach[n]) for c in range(a)], (a, b)


def test_gap_count_is_sylvester():
    # (a-1)(b-1)/2 gaps, checked across the whole small coprime grid
    for a in range(2, 120):
        for b in range(a + 1, 121):
            if math.gcd(a, b) == 1:
                pair = semigroup.new_pair(a, b)
                assert len(semigroup.gaps(pair)) == (a - 1) * (b - 1) // 2


def test_gaps_match_closure():
    for a, b in [(3, 5), (2, 7), (4, 9), (7, 11), (5, 12)]:
        pair = semigroup.new_pair(a, b)
        reach = closure_flags(a, b, pair.s)
        assert semigroup.gaps(pair) == [n for n in range(1, pair.s + 1) if not reach[n]]


def test_gaps_symmetry_and_extremes():
    # n is a gap exactly when s - n is not one
    for a, b in [(3, 8), (5, 7), (11, 24), (13, 30)]:
        pair = semigroup.new_pair(a, b)
        gs = set(semigroup.gaps(pair))
        assert max(gs) == pair.s
        assert 1 in gs
        for n in range(0, pair.s + 1):
            assert ((n in gs) + ((pair.s - n) in gs)) == 1


def test_gaps_degenerate():
    assert semigroup.gaps(semigroup.new_pair(1, 6)) == []
    assert semigroup.gaps(semigroup.new_pair(1, 1)) == []
    assert semigroup.gaps(semigroup.new_pair(2, 3)) == [1]
